/**
 * @file
 * A tracer that forwards every event to several sinks, so a run can
 * feed (say) a binary trace writer, a flight recorder, and a text
 * timeline at the same time through the Bus's single tracer slot.
 */

#ifndef BUSARB_OBS_FANOUT_HH
#define BUSARB_OBS_FANOUT_HH

#include <vector>

#include "bus/trace.hh"

namespace busarb {

/**
 * Forwards bus events to every attached tracer, in attachment order.
 */
class FanoutTracer : public BusTracer
{
  public:
    FanoutTracer() = default;

    /** Attach a sink (not owned; null is ignored). */
    void
    add(BusTracer *tracer)
    {
        if (tracer != nullptr)
            sinks_.push_back(tracer);
    }

    /** @return Number of attached sinks. */
    std::size_t size() const { return sinks_.size(); }

    /** @return The i-th attached sink. */
    BusTracer *sink(std::size_t i) const { return sinks_[i]; }

    void
    onRequestPosted(const Request &req) override
    {
        for (BusTracer *t : sinks_)
            t->onRequestPosted(req);
    }

    void
    onPassStarted(Tick now) override
    {
        for (BusTracer *t : sinks_)
            t->onPassStarted(now);
    }

    void
    onPassResolved(Tick now, Tick pass_start, const Request &winner,
                   bool retry) override
    {
        for (BusTracer *t : sinks_)
            t->onPassResolved(now, pass_start, winner, retry);
    }

    void
    onTenureStarted(const Request &req, Tick now) override
    {
        for (BusTracer *t : sinks_)
            t->onTenureStarted(req, now);
    }

    void
    onTenureEnded(const Request &req, Tick now) override
    {
        for (BusTracer *t : sinks_)
            t->onTenureEnded(req, now);
    }

  private:
    std::vector<BusTracer *> sinks_;
};

} // namespace busarb

#endif // BUSARB_OBS_FANOUT_HH
