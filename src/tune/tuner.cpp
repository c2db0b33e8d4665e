#include "tune/tuner.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "support/assert.hpp"

namespace distbc::tune {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

void append_kv(std::string& out, const std::string& key, double value) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s = %.12e\n", key.c_str(), value);
  out += buffer;
}

void append_kv(std::string& out, const std::string& key, int value) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s = %d\n", key.c_str(), value);
  out += buffer;
}

void append_kv(std::string& out, const std::string& key,
               std::string_view value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

}  // namespace

std::string TuningProfile::serialize() const {
  std::string out = "# distbc tuning profile (tune/tuner.hpp)\n";
  append_kv(out, "tune.version", 1);
  append_kv(out, "shape.num_ranks", shape.num_ranks);
  append_kv(out, "shape.ranks_per_node", shape.ranks_per_node);
  append_kv(out, "shape.threads_per_rank", shape.threads_per_rank);
  append_kv(out, "oversubscription", oversubscription);
  append_kv(out, "work_unit_s", work_unit_s);
  append_kv(out, "tree_radix", tree_radix);
  append_kv(out, "leader_radix", leader_radix);
  append_kv(out, "comm.substrate",
            std::string_view(mpisim::substrate_name(substrate)));
  for (std::size_t p = 0; p < kNumPatterns; ++p) {
    const auto pattern = static_cast<Pattern>(p);
    if (!model.has(pattern)) continue;
    const std::string prefix = std::string("pattern.") + pattern_name(pattern);
    append_kv(out, prefix + ".alpha_s", model.line(pattern).alpha_s);
    append_kv(out, prefix + ".beta_s_per_byte",
              model.line(pattern).beta_s_per_byte);
  }
  for (const auto& [key, value] : extras)
    append_kv(out, key, std::string_view(value));
  return out;
}

std::optional<TuningProfile> TuningProfile::parse(std::string_view text) {
  // Values stay raw strings until a known key asks for them: unknown keys
  // (a newer library's fields, deployment annotations) must survive the
  // round-trip verbatim instead of being coerced through strtod - the old
  // behavior silently dropped unknown numeric keys and rejected the whole
  // file on any non-numeric value.
  struct RawEntry {
    std::string key;
    std::string value;
    bool consumed = false;
  };
  std::vector<RawEntry> raw;
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) return std::nullopt;
    raw.push_back({std::string(key), std::string(value), false});
  }

  // Duplicate keys keep the old map semantics: the last assignment wins,
  // and every occurrence of a known key is consumed.
  const auto consume_str = [&](std::string_view key)
      -> std::optional<std::string_view> {
    std::optional<std::string_view> found;
    for (RawEntry& entry : raw) {
      if (entry.key != key) continue;
      entry.consumed = true;
      found = std::string_view(entry.value);
    }
    return found;
  };
  bool malformed = false;
  const auto get = [&](std::string_view key) -> std::optional<double> {
    const auto value = consume_str(key);
    if (!value) return std::nullopt;
    char* end = nullptr;
    const std::string owned(*value);
    const double parsed = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) {
      malformed = true;  // known numeric key, non-numeric value
      return std::nullopt;
    }
    return parsed;
  };
  const auto version = get("tune.version");
  if (!version || *version != 1.0) return std::nullopt;

  TuningProfile profile;
  const auto ranks = get("shape.num_ranks");
  const auto per_node = get("shape.ranks_per_node");
  const auto threads = get("shape.threads_per_rank");
  if (!ranks || !per_node || !threads) return std::nullopt;
  profile.shape.num_ranks = static_cast<int>(*ranks);
  profile.shape.ranks_per_node = static_cast<int>(*per_node);
  profile.shape.threads_per_rank = static_cast<int>(*threads);
  if (profile.shape.num_ranks < 1 || profile.shape.ranks_per_node < 1 ||
      profile.shape.threads_per_rank < 1)
    return std::nullopt;
  profile.oversubscription = get("oversubscription").value_or(1.0);
  profile.work_unit_s = get("work_unit_s").value_or(profile.work_unit_s);
  // Absent in pre-tree profiles; 0 keeps the structured paths ineligible.
  profile.tree_radix = static_cast<int>(get("tree_radix").value_or(0.0));
  profile.leader_radix = static_cast<int>(get("leader_radix").value_or(0.0));
  // String-valued known key (absent in pre-substrate profiles = mpisim).
  if (const auto name = consume_str("comm.substrate")) {
    const auto kind = mpisim::substrate_from_name(*name);
    if (!kind.has_value()) return std::nullopt;
    profile.substrate = *kind;
  }

  for (std::size_t p = 0; p < kNumPatterns; ++p) {
    const auto pattern = static_cast<Pattern>(p);
    const std::string prefix = std::string("pattern.") + pattern_name(pattern);
    const auto alpha = get(prefix + ".alpha_s");
    const auto beta = get(prefix + ".beta_s_per_byte");
    if (!alpha && !beta) continue;
    if (!alpha || !beta) return std::nullopt;
    AlphaBeta& line = profile.model.line(pattern);
    line.alpha_s = *alpha;
    line.beta_s_per_byte = *beta;
    line.valid = true;
  }
  if (malformed) return std::nullopt;
  for (RawEntry& entry : raw)
    if (!entry.consumed)
      profile.extras.emplace_back(std::move(entry.key),
                                  std::move(entry.value));
  return profile;
}

bool TuningProfile::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize();
  return static_cast<bool>(out);
}

std::optional<TuningProfile> TuningProfile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

TuningProfile capture_profile(const MicrobenchConfig& config) {
  const MicrobenchResult result = run_microbench(config);
  TuningProfile profile;
  profile.shape.num_ranks = config.num_ranks;
  profile.shape.ranks_per_node = config.ranks_per_node;
  profile.shape.threads_per_rank = std::max(1, config.threads_per_rank);
  profile.oversubscription = result.oversubscription;
  profile.work_unit_s = config.work_unit_s;
  profile.tree_radix = result.tree_radix;
  profile.leader_radix = result.leader_radix;
  profile.substrate = config.substrate;
  profile.model = CostModel::fit(result);
  return profile;
}

std::vector<TuningProfile> capture_profiles(
    const MicrobenchConfig& config,
    std::span<const mpisim::SubstrateKind> substrates) {
  std::vector<TuningProfile> profiles;
  profiles.reserve(substrates.size());
  for (const mpisim::SubstrateKind kind : substrates) {
    MicrobenchConfig per_substrate = config;
    per_substrate.substrate = kind;
    profiles.push_back(capture_profile(per_substrate));
  }
  return profiles;
}

engine::Aggregation pattern_aggregation(Pattern pattern) {
  switch (pattern) {
    case Pattern::kReduce:
      return engine::Aggregation::kBlocking;
    case Pattern::kIreduce:
      return engine::Aggregation::kIreduce;
    case Pattern::kIbarrierReduce:
    case Pattern::kWindowPreReduce:  // leaders aggregate via Ibarrier+Reduce
    case Pattern::kSparseMerge:      // image merges ride Ibarrier+Reduce too
    case Pattern::kTreeMerge:        // tree interiors overlap the same way
    case Pattern::kTwoLevel:
      return engine::Aggregation::kIbarrierReduce;
    case Pattern::kIbcast:
    case Pattern::kCount:
      break;
  }
  DISTBC_ASSERT_MSG(false, "not an aggregation pattern");
  return engine::Aggregation::kIbarrierReduce;
}

TuneDecision tune_decision(const TuningProfile& profile,
                           const TuneRequest& request) {
  DISTBC_ASSERT(request.frame_words > 0);
  DISTBC_ASSERT(request.target_overhead > 0.0);
  const CostModel& model = profile.model;
  const double margin = std::clamp(1.0 - request.decision_margin, 0.0, 1.0);
  const bool oversubscribed = profile.oversubscription > 1.0;

  // §IV-F + §IV-E selection at a given wire payload. Ibarrier+Reduce is
  // the paper-backed prior and is examined first; a competitor must beat
  // the incumbent by the decision margin to take over. On an
  // oversubscribed substrate the fully blocking variant is ineligible
  // outright: the paper measures it as "again detrimental" once waits
  // cannot hide, and a short microbench race systematically underprices
  // its straggler tail (synthetic samplers are milder than real BFS cost
  // distributions). The payload is a parameter because sparse delta images
  // shrink with the epoch: the same profile prices every representation
  // through its per-byte beta term.
  struct Path {
    Pattern pattern = Pattern::kIbarrierReduce;
    bool hierarchical = false;
    double overhead_s = 0.0;  // aggregation + termination bcast, exposed
  };
  const auto choose_path = [&](std::uint64_t wire_bytes) {
    static constexpr Pattern kFlatOrder[] = {
        Pattern::kIbarrierReduce, Pattern::kIreduce, Pattern::kReduce};
    std::optional<Pattern> best_flat;
    double best_flat_cost = 0.0;
    for (const bool allow_blocking : {!oversubscribed, true}) {
      for (const Pattern pattern : kFlatOrder) {
        if (!model.has(pattern)) continue;
        if (pattern == Pattern::kReduce && !allow_blocking) continue;
        const double cost = model.predict_seconds_bytes(pattern, wire_bytes);
        if (!best_flat || cost < best_flat_cost * margin) {
          best_flat = pattern;
          best_flat_cost = cost;
        }
      }
      if (best_flat) break;  // second pass iff the profile held nothing else
    }
    DISTBC_ASSERT_MSG(best_flat.has_value(),
                      "profile holds no aggregation pattern");
    Path path;
    path.pattern = *best_flat;
    // §IV-E: hierarchical pre-reduction iff nodes hold several ranks and
    // the measured window path clearly beats the best flat reduction.
    if (profile.shape.ranks_per_node > 1 && profile.shape.num_ranks > 1 &&
        model.has(Pattern::kWindowPreReduce) &&
        model.predict_seconds_bytes(Pattern::kWindowPreReduce, wire_bytes) <
            best_flat_cost * margin) {
      path.hierarchical = true;
      path.pattern = Pattern::kWindowPreReduce;
    }
    path.overhead_s =
        model.predict_epoch_overhead_bytes(path.pattern, wire_bytes);
    return path;
  };

  // §IV-D: the smallest epoch whose aggregation overhead stays below the
  // target fraction of its sampling time. Floor at one sample per physical
  // thread so cheap interconnects do not degenerate into single-sample
  // epochs.
  const double sample_s =
      request.sample_seconds > 0.0 ? request.sample_seconds
                                   : profile.work_unit_s;
  const auto total_threads =
      static_cast<double>(profile.shape.num_ranks) *
      static_cast<double>(profile.shape.threads_per_rank);
  const auto n0_for = [&](const Path& path) {
    return std::max(total_threads, path.overhead_s * total_threads /
                                       (request.target_overhead * sample_s));
  };

  const std::uint64_t dense_bytes =
      static_cast<std::uint64_t>(request.frame_words) * sizeof(std::uint64_t);
  Path path = choose_path(dense_bytes);
  double n0_min = n0_for(path);
  std::uint64_t wire_bytes = dense_bytes;
  engine::FrameRep frame_rep = request.base.frame_rep;

  // Frame representation: predict the sparse delta image of one epoch's
  // per-rank contribution (epoch samples x touched words, capped at the
  // dense frame) and re-decide at that payload when it undercuts dense.
  // Smaller payloads shrink the beta term, which shrinks the epoch, which
  // shrinks the payload again - iterate the monotone fixed point. Auto is
  // emitted rather than forced-sparse: per-payload densification means the
  // decision cannot lose when the estimate is off.
  if (request.touched_words_per_sample > 0.0) {
    const double per_rank =
        1.0 / static_cast<double>(std::max(1, profile.shape.num_ranks));
    const auto sparse_bytes_at = [&](double n0) {
      const double pairs =
          std::min(static_cast<double>(request.frame_words),
                   n0 * per_rank * request.touched_words_per_sample);
      const std::size_t words =
          std::min(epoch::dense_image_words(request.frame_words),
                   epoch::sparse_image_words(
                       static_cast<std::size_t>(std::ceil(pairs))));
      return static_cast<std::uint64_t>(words) * sizeof(std::uint64_t);
    };
    // When the microbench fitted a sparse-merge line, the sparse payload
    // is priced on it: the root of a merge reduction pays an image merge,
    // not the dense elementwise combine the flat lines measured. Without
    // one, fall back to pricing the flat lines at the smaller payload.
    // The structured merge paths compete here too: the flat sparse merge
    // is the incumbent, and the radix-tree or two-level line must beat
    // the running best by the decision margin to take over - each was
    // fitted at the radix the profile records, which is what the winner
    // emits.
    const bool merge_line = model.has(Pattern::kSparseMerge);
    const auto sparse_path_at = [&](std::uint64_t bytes) {
      if (!merge_line) return choose_path(bytes);
      Path sparse_path;
      sparse_path.pattern = Pattern::kSparseMerge;
      sparse_path.overhead_s =
          model.predict_epoch_overhead_bytes(Pattern::kSparseMerge, bytes);
      if (model.has(Pattern::kTreeMerge) && profile.tree_radix >= 2 &&
          model.predict_epoch_overhead_bytes(Pattern::kTreeMerge, bytes) <
              sparse_path.overhead_s * margin) {
        sparse_path.pattern = Pattern::kTreeMerge;
        sparse_path.overhead_s =
            model.predict_epoch_overhead_bytes(Pattern::kTreeMerge, bytes);
      }
      if (profile.shape.ranks_per_node > 1 &&
          model.has(Pattern::kTwoLevel) && profile.leader_radix >= 2 &&
          model.predict_epoch_overhead_bytes(Pattern::kTwoLevel, bytes) <
              sparse_path.overhead_s * margin) {
        sparse_path.pattern = Pattern::kTwoLevel;
        sparse_path.hierarchical = true;
        sparse_path.overhead_s =
            model.predict_epoch_overhead_bytes(Pattern::kTwoLevel, bytes);
      }
      return sparse_path;
    };
    std::uint64_t candidate = sparse_bytes_at(n0_min);
    if (candidate < dense_bytes) {
      // Chase the fixed point payload -> strategy/overhead -> epoch ->
      // payload until the predicted image size stabilizes (capped; the
      // map is monotone, so it settles in a few rounds).
      for (int iteration = 0; iteration < 8; ++iteration) {
        const std::uint64_t next =
            sparse_bytes_at(n0_for(sparse_path_at(candidate)));
        if (next == candidate) break;
        candidate = next;
      }
      // With a merge line the final call is time-based - a byte win is
      // not a win if the root-side merge alpha eats it; otherwise the
      // smaller payload decides.
      const bool sparse_wins =
          candidate < dense_bytes &&
          (!merge_line ||
           sparse_path_at(candidate).overhead_s <= path.overhead_s);
      if (sparse_wins) {
        // Final pricing at the accepted payload, so the emitted strategy,
        // epoch sizing, and telemetry all refer to the same wire bytes.
        frame_rep = engine::FrameRep::kAuto;
        wire_bytes = candidate;
        path = sparse_path_at(wire_bytes);
        n0_min = n0_for(path);
      } else {
        frame_rep = engine::FrameRep::kDense;
      }
    } else {
      frame_rep = engine::FrameRep::kDense;
    }
  }

  engine::EngineOptions options = request.base;
  options.threads_per_rank = profile.shape.threads_per_rank;
  options.aggregation = pattern_aggregation(path.pattern);
  options.hierarchical = path.hierarchical;
  options.frame_rep = frame_rep;
  // When the microbench priced a structured merge line, the tuner owns
  // that radix knob: the winning pattern gets the radix its line was
  // fitted at, a losing one is switched off rather than left to whatever
  // the base options carried.
  if (model.has(Pattern::kTreeMerge))
    options.tree_radix =
        path.pattern == Pattern::kTreeMerge ? profile.tree_radix : 0;
  if (model.has(Pattern::kTwoLevel))
    options.leader_radix =
        path.pattern == Pattern::kTwoLevel ? profile.leader_radix : 0;
  const double streams =
      options.deterministic && options.virtual_streams != 0
          ? static_cast<double>(options.virtual_streams)
          : total_threads;
  options.epoch_base = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(n0_min / std::pow(streams, options.epoch_exponent))));
  // Cap runaway epochs at a small multiple of the sized epoch; adaptive
  // drivers still clamp tighter against their own sample budgets.
  const auto n0_cap = static_cast<std::uint64_t>(
      std::ceil(std::max(1.0, 4.0 * n0_min)));
  options.max_epoch_length = options.max_epoch_length == 0
                                 ? n0_cap
                                 : std::min(options.max_epoch_length, n0_cap);

  TuneDecision decision;
  decision.pattern = path.pattern;
  decision.frame_rep = frame_rep;
  decision.predicted_overhead_s = path.overhead_s;
  decision.predicted_wire_bytes = wire_bytes;
  decision.options = options;
  decision.predicted_epoch_s =
      n0_min * sample_s / total_threads + path.overhead_s;
  return decision;
}

engine::EngineOptions tuned_options(const TuningProfile& profile,
                                    const TuneRequest& request) {
  return tune_decision(profile, request).options;
}

}  // namespace distbc::tune
