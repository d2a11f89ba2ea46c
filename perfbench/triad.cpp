// STREAM-triad bandwidth probe: the memory roof the lookup layer is
// compared against (xsdata.roofline_frac).
#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

double triad_gbps(std::size_t n, int threads, int passes) {
  if (n == 0) return 0.0;
  const std::size_t nt = static_cast<std::size_t>(std::max(threads, 1));
  // Uninitialised storage, so each worker's first touch places its slice.
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const double scalar = 3.0;

  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    pool.reserve(nt);
    const std::size_t chunk = (n + nt - 1) / nt;
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t lo = std::min(n, t * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : pool) th.join();
  };

  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  for (int p = 0; p <= passes; ++p) {  // pass 0 warms up, untimed
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    const double dt = now_s() - t0;
    if (p > 0 && dt > 0.0) {
      best = std::max(best, 24.0 * static_cast<double>(n) / dt / 1e9);
    }
  }
  // Read the result back so the stores cannot be elided.
  if (a[n / 2] != 1.0 + scalar * 2.0) return 0.0;
  return best;
}

}  // namespace perfbench
