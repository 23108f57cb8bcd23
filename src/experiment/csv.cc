#include "experiment/csv.hh"

#include <ostream>

namespace busarb {

void
writeBatchesCsv(const ScenarioResult &result, std::ostream &os)
{
    os << "batch,duration,utilization,wait_mean,wait_stddev,passes,"
          "retry_passes";
    for (int a = 1; a <= result.numAgents; ++a)
        os << ",completions_" << a;
    os << "\n";
    for (std::size_t b = 0; b < result.batches.size(); ++b) {
        const BatchStats &batch = result.batches[b];
        os << b << "," << batch.duration << "," << batch.utilization
           << "," << batch.waitMean << "," << batch.waitStddev << ","
           << batch.passes << "," << batch.retryPasses;
        for (auto c : batch.completions)
            os << "," << c;
        os << "\n";
    }
}

void
writeHistogramCsv(const ScenarioResult &result, std::ostream &os)
{
    const Histogram &h = result.waitHistogram;
    os << "bin_lo,bin_hi,count,cdf\n";
    for (std::size_t i = 0; i < h.numBins(); ++i) {
        const double lo = h.binWidth() * static_cast<double>(i);
        const double hi = h.binWidth() * static_cast<double>(i + 1);
        os << lo << "," << hi << "," << h.binCount(i) << "," << h.cdf(hi)
           << "\n";
    }
    os << h.binWidth() * static_cast<double>(h.numBins())
       << ",inf," << h.overflow() << ",1\n";
}

void
writeSummaryCsvHeader(std::ostream &os)
{
    os << "label,protocol";
    for (const ResultEstimate &e : kResultEstimates) {
        if (e.csv != CsvForm::kAbsent)
            os << "," << e.key;
        if (e.csv == CsvForm::kValueAndHalfWidth)
            os << "," << e.key << "_hw";
    }
    os << "\n";
}

void
writeSummaryCsvRow(const ScenarioResult &result, const std::string &label,
                   std::ostream &os)
{
    os << label << "," << result.protocolName;
    for (const ResultEstimate &e : kResultEstimates) {
        if (e.csv == CsvForm::kAbsent)
            continue;
        const Estimate estimate = e.compute(result);
        os << "," << estimate.value;
        if (e.csv == CsvForm::kValueAndHalfWidth)
            os << "," << estimate.halfWidth;
    }
    os << "\n";
}

} // namespace busarb
