#include "lines.hpp"

#include <array>
#include <string_view>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {
namespace {

/// Graph seed of the run's workloads: every generated signature carries it,
/// so a new run seed means new graphs, not only a new request order.
std::uint64_t graph_seed(omega::Rng& rng) {
  return 1 + rng.next_below(1u << 20);
}

std::string workload_json(std::string_view dataset, double scale,
                          std::uint64_t seed) {
  // Scales are written as fixed literals ("0.25", "0.5") so the generated
  // bytes do not depend on a float formatter.
  std::string scale_text = scale == 0.25 ? "0.25" : scale == 0.5 ? "0.5" : "";
  if (scale_text.empty()) scale_text = std::to_string(scale);
  return "{\"dataset\":\"" + std::string(dataset) + "\",\"scale\":" +
         scale_text + ",\"seed\":" + std::to_string(seed) + "}";
}

template <typename T>
void shuffle(std::vector<T>& v, omega::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

std::string with_id(std::uint64_t id, std::string_view rest) {
  return "{\"id\":" + std::to_string(id) + "," + std::string(rest) + "}";
}

// ---- search_warm ------------------------------------------------------------

constexpr std::string_view kGatChain =
    R"J("chain":{"phases":[{"name":"score","engine":"gemm","out_features":16},)J"
    R"J({"name":"agg","engine":"spmm"},)J"
    R"J({"name":"xform","engine":"spgemm","out_features":8,"density":0.5}]})J";

/// One search request body (without id) and its single-thread twin.
std::pair<std::string, std::string> search_body(int kind,
                                                const std::string& wl) {
  switch (kind) {
    case 0: {
      const std::string head = "\"kind\":\"search_mappings\",\"workload\":" +
                               wl + ",\"out_features\":16,\"options\":{";
      const std::string opts = "\"max_candidates\":96,\"top_k\":4";
      return {head + opts + "}", head + opts + ",\"threads\":1}"};
    }
    case 1: {
      const std::string head = "\"version\":2,\"kind\":\"search_pipeline\","
                               "\"workload\":" + wl + "," +
                               std::string(kGatChain) + ",\"options\":{";
      const std::string opts =
          "\"max_candidates\":256,\"top_k\":4,\"objective\":\"edp\","
          "\"prune\":true";
      return {head + opts + "}", head + opts + ",\"threads\":1}"};
    }
    default: {
      const std::string head = "\"kind\":\"search_model\",\"workload\":" + wl +
                               ",\"model\":{\"arch\":\"gcn\",\"widths\":[16,8]}"
                               ",\"options\":{";
      const std::string opts = "\"budget\":96";
      return {head + opts + "}", head + opts + ",\"threads\":1}"};
    }
  }
}

// ---- evaluate_churn ---------------------------------------------------------

/// Bodies a valid evaluate line can carry (after the workload member).
/// Every hot signature is warmed with each of them, so a hot request finds
/// both the workload and its phase memo resident.
const std::array<std::string_view, 7> kEvalBodies{
    R"J("out_features":16,"pattern":"SP2")J",
    R"J("out_features":16,"pattern":"PP1")J",
    R"J("out_features":16,"pattern":"Seq1")J",
    R"J("out_features":16,"pattern":"SPhighV")J",
    R"J("out_features":16,"dataflow":"Seq_AC(VtNtFt, VtFtGt)")J",
    R"J("out_features":16,"dataflow":"PP_AC(VsFsNt, VsGsFt)","pp_fraction":0.25)J",
    // v2 3-phase pipeline evaluate (marked by the leading version below).
    R"J("pipeline":{"phases":[{"name":"score","engine":"gemm","dataflow":"VsFtGs","tiles":[8,1,8],"out_features":16},)J"
    R"J({"name":"agg","engine":"spmm","dataflow":"NtFsVt","tiles":[1,4,16]},)J"
    R"J({"name":"xform","engine":"spgemm","dataflow":"GsVtFt","tiles":[1,1,8],"out_features":8,"density":0.5}],"boundaries":["SPg","Seq"]})J"};

std::string evaluate_line(std::uint64_t id, const std::string& wl,
                          std::size_t body) {
  const bool v2 = body + 1 == kEvalBodies.size();
  return with_id(id, std::string(v2 ? "\"version\":2," : "") +
                         "\"kind\":\"evaluate\",\"workload\":" + wl + "," +
                         std::string(kEvalBodies[body]));
}

struct DatasetScale {
  std::string_view dataset;
  double scale;
};

constexpr std::array<DatasetScale, 4> kHotSet{{{"Cora", 0.5},
                                              {"Citeseer", 0.5},
                                              {"Proteins", 0.5},
                                              {"Mutag", 0.5}}};

/// Eight (dataset, scale) shapes, each at two graph seeds distinct from the
/// hot set's: 16 cold signatures spanning sub-ms to tens-of-ms builds.
constexpr std::array<DatasetScale, 8> kColdShapes{{{"Cora", 0.25},
                                                  {"Citeseer", 0.25},
                                                  {"Proteins", 0.25},
                                                  {"Mutag", 0.25},
                                                  {"Imdb-bin", 0.5},
                                                  {"Collab", 0.25},
                                                  {"Reddit-bin", 0.25},
                                                  {"Citeseer", 0.5}}};
static_assert(2 * kColdShapes.size() == kChurnColdPool);

}  // namespace

std::vector<std::string> line_texts(const std::vector<GeneratedLine>& lines,
                                    bool single_thread) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const GeneratedLine& g : lines) {
    out.push_back(single_thread && !g.single_thread_line.empty()
                      ? g.single_thread_line
                      : g.line);
  }
  return out;
}

TrafficPlan search_warm_plan(std::uint64_t seed, double scale) {
  omega::Rng rng(seed);
  const std::uint64_t gseed = graph_seed(rng);
  std::vector<std::pair<std::string, std::string>> bodies;
  for (const std::string_view dataset : {"Cora", "Citeseer", "Proteins"}) {
    const std::string wl = workload_json(dataset, scale, gseed);
    for (int kind = 0; kind < 3; ++kind) {
      bodies.push_back(search_body(kind, wl));
    }
  }
  TrafficPlan plan;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const std::uint64_t id = kWarmupIdBase + i + 1;
    // The first line per dataset (kind 0) builds its registry entry.
    plan.warmup.push_back(
        {with_id(id, bodies[i].first), LineClass::kCold,
         i % 3 == 0 ? RegistryEffect::kMiss : RegistryEffect::kHit, "",
         with_id(id, bodies[i].second)});
  }
  shuffle(bodies, rng);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    plan.cycle.push_back({with_id(i + 1, bodies[i].first), LineClass::kWarm,
                          RegistryEffect::kHit, "",
                          with_id(i + 1, bodies[i].second)});
  }
  return plan;
}

TrafficPlan evaluate_churn_plan(std::uint64_t seed) {
  omega::Rng rng(seed);
  const std::uint64_t gseed = graph_seed(rng);
  std::vector<std::string> hot;
  for (const DatasetScale& h : kHotSet) {
    hot.push_back(workload_json(h.dataset, h.scale, gseed));
  }
  // Cold member j carries a fixed body so every seed has the same mix of
  // cold work; the seed moves the graphs and the order.
  std::vector<std::pair<std::string, std::size_t>> cold;
  for (std::size_t j = 0; j < kChurnColdPool; ++j) {
    const DatasetScale& s = kColdShapes[j % kColdShapes.size()];
    cold.emplace_back(
        workload_json(s.dataset, s.scale, gseed + 1 + j / kColdShapes.size()),
        j % kEvalBodies.size());
  }
  shuffle(cold, rng);

  // Warm-up: every hot signature with every body; the first line per
  // signature is its registry miss.
  TrafficPlan plan;
  for (const std::string& wl : hot) {
    for (std::size_t b = 0; b < kEvalBodies.size(); ++b) {
      plan.warmup.push_back(
          {evaluate_line(kWarmupIdBase + plan.warmup.size() + 1, wl, b),
           b == 0 ? LineClass::kCold : LineClass::kWarm,
           b == 0 ? RegistryEffect::kMiss : RegistryEffect::kHit, "", ""});
    }
  }

  // Deliberate errors, one of each per cycle in a seeded order.
  std::vector<int> errors{0, 1, 2, 3};
  shuffle(errors, rng);
  const auto error_line = [&](std::uint64_t id, int which) -> GeneratedLine {
    switch (which) {
      case 0:
        return {with_id(id, "\"kind\":\"evaluate\",\"workload\":" +
                                workload_json("Atlantis", 0.5, gseed) +
                                ",\"out_features\":16,\"pattern\":\"SP2\""),
                LineClass::kError, RegistryEffect::kMiss,
                "InvalidArgumentError", ""};
      case 1:
        return {with_id(id, "\"kind\":\"evaluate\",\"workload\":" + hot[0] +
                                ",\"pes\":1,\"out_features\":16,"
                                "\"dataflow\":\"PP_AC(VtFsNt, VsGsFt)\""),
                LineClass::kError, RegistryEffect::kHit, "ResourceError", ""};
      case 2:  // truncated JSON
        return {"{\"id\":" + std::to_string(id) +
                    ",\"kind\":\"evaluate\",\"workload\":{\"dataset\":",
                LineClass::kError, RegistryEffect::kNone,
                "InvalidArgumentError", ""};
      default:  // scheduling fields need "version":2
        return {with_id(id, "\"kind\":\"evaluate\",\"priority\":3,"
                            "\"workload\":" + hot[1] +
                                ",\"out_features\":16,\"pattern\":\"SP2\""),
                LineClass::kError, RegistryEffect::kNone,
                "InvalidArgumentError", ""};
    }
  };

  // Hot bodies come from one shuffled deck per cycle, so every seed sends
  // the same mix of request shapes.
  constexpr std::size_t kGroup = 6;
  std::vector<std::size_t> deck;
  for (std::size_t i = 0; i < kChurnColdPool * (kGroup - 1); ++i) {
    deck.push_back(i % kEvalBodies.size());
  }
  shuffle(deck, rng);
  std::size_t next_hot = 0;
  for (std::size_t g = 0; g < kChurnColdPool; ++g) {
    const std::size_t cold_slot = rng.next_below(kGroup);
    for (std::size_t k = 0; k < kGroup; ++k) {
      const std::uint64_t id = plan.cycle.size() + 1;
      if (k == cold_slot) {
        plan.cycle.push_back({evaluate_line(id, cold[g].first, cold[g].second),
                              LineClass::kCold, RegistryEffect::kMiss, "", ""});
      } else {
        plan.cycle.push_back({evaluate_line(id, hot[next_hot % hot.size()],
                                            deck[next_hot]),
                              LineClass::kWarm, RegistryEffect::kHit, "", ""});
        ++next_hot;
      }
    }
    if (g % 4 == 3) {
      plan.cycle.push_back(error_line(plan.cycle.size() + 1, errors[g / 4]));
    }
  }
  return plan;
}

}  // namespace perfbench
