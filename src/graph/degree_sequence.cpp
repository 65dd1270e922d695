#include "graph/degree_sequence.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace dgr::graph {

std::uint64_t degree_sum(const DegreeSequence& d) {
  return std::accumulate(d.begin(), d.end(), std::uint64_t{0});
}

bool handshake_ok(const DegreeSequence& d) {
  const std::uint64_t n = d.size();
  if (degree_sum(d) % 2 != 0) return false;
  // di < n, not di + 1 <= n: the latter wraps at UINT64_MAX.
  return std::all_of(d.begin(), d.end(),
                     [n](std::uint64_t di) { return di < n; });
}

bool erdos_gallai_graphic(DegreeSequence d) {
  if (!handshake_ok(d)) return false;
  std::sort(d.begin(), d.end(), std::greater<>());
  const std::size_t n = d.size();

  // Prefix sums of the sorted sequence.
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + d[i];

  // For the right-hand side, observe that min(d_i, k) = k for the (sorted)
  // head where d_i >= k; binary search for that boundary.
  for (std::size_t k = 1; k <= n; ++k) {
    const std::uint64_t lhs = prefix[k];
    // First index (0-based) with d_i < k, searching in [k, n).
    const auto it =
        std::partition_point(d.begin() + static_cast<std::ptrdiff_t>(k),
                             d.end(),
                             [k](std::uint64_t di) { return di >= k; });
    const auto geq =
        static_cast<std::uint64_t>(it - d.begin() -
                                   static_cast<std::ptrdiff_t>(k));
    const std::uint64_t tail_sum =
        prefix[n] - prefix[k + geq];  // entries with d_i < k
    const std::uint64_t rhs =
        static_cast<std::uint64_t>(k) * (k - 1) + geq * k + tail_sum;
    if (lhs > rhs) return false;
  }
  return true;
}

bool tree_realizable(const DegreeSequence& d) {
  const std::size_t n = d.size();
  if (n == 0) return false;
  if (n == 1) return d[0] == 0;
  if (std::any_of(d.begin(), d.end(),
                  [](std::uint64_t di) { return di == 0; }))
    return false;
  return degree_sum(d) == 2 * (static_cast<std::uint64_t>(n) - 1);
}

bool same_multiset(DegreeSequence a, DegreeSequence b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace dgr::graph
