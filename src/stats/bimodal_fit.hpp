// Bimodal mixture-of-uniforms fitting.
//
// The paper (Section 5.1) approximates measured end-to-end delay
// distributions "by using uniform distributions in a bi-modal fashion",
// e.g. unicast = U[0.10, 0.13] w.p. 0.8 and U[0.145, 0.35] w.p. 0.2.
// This module makes the fit reproducible: it selects the split point that
// minimises the L2 error between the empirical quantile function and a
// two-piece piecewise-linear (i.e. two-uniform-mixture) quantile function.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sanperf::stats {

/// Mixture of two uniform components: U[a1,b1] w.p. p1, U[a2,b2] w.p. 1-p1.
struct BimodalUniform {
  double p1 = 1.0;
  double a1 = 0.0, b1 = 0.0;
  double a2 = 0.0, b2 = 0.0;

  [[nodiscard]] double mean() const;
  [[nodiscard]] double cdf(double x) const;
  [[nodiscard]] std::string to_string() const;  ///< e.g. "U[0.100,0.130]@0.80 + U[0.145,0.350]@0.20"

  friend bool operator==(const BimodalUniform&, const BimodalUniform&) = default;
};

/// Fits a two-uniform mixture to a sample by exhaustive split search.
/// `min_side_fraction` keeps both components from degenerating.
/// Requires at least 8 samples.
[[nodiscard]] BimodalUniform fit_bimodal_uniform(std::vector<double> samples,
                                                 double min_side_fraction = 0.05);

}  // namespace sanperf::stats
