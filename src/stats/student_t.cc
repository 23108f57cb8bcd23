#include "stats/student_t.hh"

#include <array>
#include <cmath>

#include "sim/logging.hh"

namespace busarb {

namespace {

// Per supported level: the two-sided critical values t_{dof, 1 - alpha/2}
// for dof = 1..30, and the normal-approximation limit z for dof > 30.
struct Level
{
    double confidence;
    std::array<double, 30> t;
    double z;
};

constexpr Level kLevels[] = {
    {0.90,
     {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
      1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
      1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
     1.645},
    {0.95,
     {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
     1.960},
    {0.99,
     {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
      3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
      2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
     2.576},
};

const Level *
findLevel(double confidence)
{
    for (const Level &level : kLevels)
        if (std::abs(confidence - level.confidence) < 1e-9)
            return &level;
    return nullptr;
}

} // namespace

bool
supportedConfidence(double confidence)
{
    return findLevel(confidence) != nullptr;
}

double
studentTCritical(int dof, double confidence)
{
    BUSARB_ASSERT(dof >= 1, "degrees of freedom must be >= 1, got ", dof);
    const Level *level = findLevel(confidence);
    if (level == nullptr) {
        BUSARB_FATAL("unsupported confidence level ", confidence,
                     " (use 0.90, 0.95, or 0.99)");
    }
    if (dof <= 30)
        return level->t[static_cast<std::size_t>(dof - 1)];
    return level->z;
}

} // namespace busarb
