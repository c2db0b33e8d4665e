#include "reference.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "bc/brandes_parallel.hpp"
#include "graph/bfs.hpp"
#include "graph/stats.hpp"

namespace perfbench {
namespace {

using distbc::graph::Graph;
using distbc::graph::Vertex;

int reference_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

DistanceReference all_pairs_bfs(const Graph& graph) {
  const Vertex n = graph.num_vertices();
  const int threads = reference_threads();
  std::vector<std::vector<double>> harmonic(threads,
                                            std::vector<double>(n, 0.0));
  std::vector<double> distance_sum(threads, 0.0);
  std::atomic<Vertex> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      distbc::graph::BfsWorkspace ws(n);
      for (Vertex s = next++; s < n; s = next++) {
        (void)distbc::graph::bfs(graph, s, ws);
        for (const Vertex v : ws.queue()) {
          if (v == s) continue;
          const double d = ws.dist(v);
          harmonic[w][v] += 1.0 / d;
          distance_sum[w] += d;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  DistanceReference ref;
  ref.harmonic.assign(n, 0.0);
  double total = 0.0;
  for (int w = 0; w < threads; ++w) {
    for (Vertex v = 0; v < n; ++v) ref.harmonic[v] += harmonic[w][v];
    total += distance_sum[w];
  }
  const double others = static_cast<double>(n) - 1.0;
  for (double& h : ref.harmonic) h /= others;
  ref.mean_distance = total / (static_cast<double>(n) * others);
  return ref;
}

/// Reads exactly `count` doubles; false when the file is missing or holds
/// another number of bytes.
bool load(const std::string& path, std::size_t count,
          std::vector<double>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in || static_cast<std::size_t>(in.tellg()) != count * sizeof(double)) {
    return false;
  }
  out.resize(count);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(count * sizeof(double)));
  return static_cast<bool>(in);
}

/// Writes through a temporary file and a rename, so a concurrent reader
/// never sees a partial file. A failed write only costs a recomputation.
void store(const std::string& path, const std::vector<double>& values) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(double)));
    if (!out) {
      std::remove(tmp.c_str());
      return;
    }
  }
  std::rename(tmp.c_str(), path.c_str());
}

/// `count` doubles for (`key`, `kind`): from the cache directory when it
/// holds them, else from `compute` (then stored there).
template <typename Compute>
std::vector<double> cached(const std::string& dir, std::uint64_t key,
                           const char* kind, std::size_t count,
                           Compute&& compute) {
  std::string path;
  if (!dir.empty()) {
    char name[64];
    std::snprintf(name, sizeof name, "/%016llx-%s.bin",
                  static_cast<unsigned long long>(key), kind);
    path = dir + name;
    std::vector<double> values;
    if (load(path, count, values)) return values;
  }
  std::vector<double> values = compute();
  if (!path.empty()) store(path, values);
  return values;
}

}  // namespace

const std::vector<double>& References::betweenness(const Graph& graph) {
  const std::uint64_t key = distbc::graph::fingerprint(graph);
  auto it = betweenness_.find(key);
  if (it == betweenness_.end()) {
    std::vector<double> scores =
        cached(dir_, key, "bc", graph.num_vertices(), [&] {
          return distbc::bc::brandes_parallel(graph, reference_threads())
              .scores;
        });
    it = betweenness_.emplace(key, std::move(scores)).first;
  }
  return it->second;
}

const DistanceReference& References::distances(const Graph& graph) {
  const std::uint64_t key = distbc::graph::fingerprint(graph);
  auto it = distances_.find(key);
  if (it == distances_.end()) {
    // Stored as the harmonic closeness of every vertex, then the mean.
    std::vector<double> flat =
        cached(dir_, key, "dist", graph.num_vertices() + std::size_t{1}, [&] {
          DistanceReference ref = all_pairs_bfs(graph);
          ref.harmonic.push_back(ref.mean_distance);
          return std::move(ref.harmonic);
        });
    DistanceReference ref;
    ref.mean_distance = flat.back();
    flat.pop_back();
    ref.harmonic = std::move(flat);
    it = distances_.emplace(key, std::move(ref)).first;
  }
  return it->second;
}

double max_abs_error(std::span<const double> estimate,
                     std::span<const double> exact) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (estimate.size() != exact.size()) return kInf;
  double worst = 0.0;
  for (std::size_t i = 0; i < estimate.size(); ++i) {
    if (!std::isfinite(estimate[i])) return kInf;
    worst = std::max(worst, std::abs(estimate[i] - exact[i]));
  }
  return worst;
}

}  // namespace perfbench
