/**
 * @file
 * Student-t critical values for confidence-interval construction.
 */

#ifndef BUSARB_STATS_STUDENT_T_HH
#define BUSARB_STATS_STUDENT_T_HH

namespace busarb {

/**
 * Two-sided Student-t critical value.
 *
 * @param dof Degrees of freedom; must be >= 1.
 * @param confidence Two-sided confidence level; one of 0.90, 0.95, 0.99.
 * @return t such that P(|T_dof| <= t) == confidence.
 */
double studentTCritical(int dof, double confidence);

/** @return Whether studentTCritical accepts `confidence`. */
bool supportedConfidence(double confidence);

} // namespace busarb

#endif // BUSARB_STATS_STUDENT_T_HH
