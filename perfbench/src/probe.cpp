// Host-speed probe: a fixed serial kernel timed next to every solve.
//
// On a shared host the machine's speed moves in phases of seconds to
// minutes, by up to half, and every kernel — serial or parallel, the
// library's or not — moves with it (perfbench/README.md). Dividing a solve's
// latency by the probe's latency in the same window cancels the phase. The
// probe is serial Brandes on a fixed grid, written here on its own arrays
// rather than taken from the library, so that no change to the library
// moves it.
#include <algorithm>
#include <cstdint>

#include "perfbench.hpp"
#include "support/timer.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kSide = 64;      // 64 x 64 grid, 4096 vertices
constexpr std::uint32_t kSources = 32;   // about 4 ms per pass on a 4-core host

}  // namespace

HostProbe::HostProbe() {
  // Grid edges plus one diagonal in every other cell, so shortest paths
  // have ties (sigma > 1) as in a road network.
  const std::uint32_t n = kSide * kSide;
  std::vector<std::vector<std::uint32_t>> adj(n);
  auto link = [&](std::uint32_t a, std::uint32_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (std::uint32_t r = 0; r < kSide; ++r) {
    for (std::uint32_t c = 0; c < kSide; ++c) {
      const std::uint32_t v = r * kSide + c;
      if (c + 1 < kSide) link(v, v + 1);
      if (r + 1 < kSide) link(v, v + kSide);
      if (r + 1 < kSide && c + 1 < kSide && (r + c) % 2 == 0) link(v, v + kSide + 1);
    }
  }
  offsets_.push_back(0);
  for (const auto& list : adj) {
    targets_.insert(targets_.end(), list.begin(), list.end());
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
  dist_.resize(n);
  sigma_.resize(n);
  delta_.resize(n);
  order_.resize(n);
}

double HostProbe::run() {
  apgre::Timer timer;
  const auto n = static_cast<std::uint32_t>(dist_.size());
  double total = 0.0;
  for (std::uint32_t k = 0; k < kSources; ++k) {
    const std::uint32_t s = k * (n / kSources);
    std::fill(dist_.begin(), dist_.end(), -1);
    std::fill(sigma_.begin(), sigma_.end(), 0.0);
    std::fill(delta_.begin(), delta_.end(), 0.0);
    dist_[s] = 0;
    sigma_[s] = 1.0;
    order_[0] = s;
    std::uint32_t head = 0, tail = 1;
    while (head < tail) {
      const std::uint32_t v = order_[head++];
      for (std::uint32_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const std::uint32_t w = targets_[i];
        if (dist_[w] < 0) {
          dist_[w] = dist_[v] + 1;
          order_[tail++] = w;
        }
        if (dist_[w] == dist_[v] + 1) sigma_[w] += sigma_[v];
      }
    }
    for (std::uint32_t j = tail; j-- > 1;) {
      const std::uint32_t w = order_[j];
      for (std::uint32_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
        const std::uint32_t v = targets_[i];
        if (dist_[v] == dist_[w] - 1) {
          delta_[v] += sigma_[v] / sigma_[w] * (1.0 + delta_[w]);
        }
      }
      total += delta_[w];
    }
  }
  sink_ = total;  // keeps the passes observable
  return timer.seconds();
}

}  // namespace perfbench
