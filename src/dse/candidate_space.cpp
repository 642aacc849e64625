#include "dse/candidate_space.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "dataflow/enumerate.hpp"
#include "omega/tiler.hpp"
#include "util/error.hpp"

namespace omega {

namespace {

using TileList = std::vector<TileSizes>;

constexpr bool is_chunked(InterPhase k) {
  return k == InterPhase::kSPGeneric || k == InterPhase::kParallelPipeline;
}

std::size_t cap_of(std::size_t extent) {
  return std::max<std::size_t>(1,
                               std::bit_ceil(std::max<std::size_t>(extent, 1)));
}

[[noreturn]] void throw_too_large() {
  throw InvalidArgumentError(
      "candidate space is larger than size_t; narrow the search options");
}

std::size_t checked_add(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) throw_too_large();
  return r;
}

std::size_t checked_mul(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) throw_too_large();
  return r;
}

using TileKey = std::array<std::size_t, 4>;

TileKey tile_key(const TileSizes& t) { return {t.v, t.n, t.f, t.g}; }

}  // namespace

std::size_t pp_budget_first(std::size_t pes, double frac) {
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(pes) * frac), 1, pes - 1);
}

ChainShape ChainShape::of(const PipelineChainSpec& chain, std::size_t index,
                          std::size_t default_in_features) {
  {
    const auto err = chain.chain_error();
    OMEGA_CHECK(!err, "pipeline search chain " + std::to_string(index) + ": " +
                          (err ? *err : std::string{}));
  }
  ChainShape s;
  std::size_t width =
      chain.in_features > 0 ? chain.in_features : default_in_features;
  for (const PhaseChainSpec& p : chain.phases) {
    Phase ph;
    ph.engine = p.engine;
    ph.in_w = width;
    ph.out_w = p.engine == PhaseEngine::kSparseDense ? width : p.out_features;
    for (const LoopOrder& o : all_loop_orders(taxonomy_phase(p.engine))) {
      if (p.engine == PhaseEngine::kSparseSparse &&
          o.depth_of(Dim::kG) > o.depth_of(Dim::kF)) {
        continue;
      }
      ph.orders.push_back(o);
    }
    width = ph.out_w;
    s.phases.push_back(std::move(ph));
  }
  if (s.phases.size() == 2) {
    const PhaseEngine e0 = chain.phases[0].engine;
    const PhaseEngine e1 = chain.phases[1].engine;
    if (e0 == PhaseEngine::kSparseDense && e1 == PhaseEngine::kDenseDense) {
      s.classic = PhaseOrder::kAC;
      s.classic_layer = LayerSpec{.out_features = chain.phases[1].out_features,
                                  .in_features = chain.in_features};
    } else if (e0 == PhaseEngine::kDenseDense &&
               e1 == PhaseEngine::kSparseDense) {
      s.classic = PhaseOrder::kCA;
      s.classic_layer = LayerSpec{.out_features = chain.phases[0].out_features,
                                  .in_features = chain.in_features};
    }
  }
  return s;
}

struct CandidateSpace::Impl {
  /// One classic block: a (strategy, agg order, cmb order, PP fraction)
  /// choice whose candidates are agg tilings x cmb tilings, agg outer. An
  /// SP-Optimized block instead walks its filtered agg list (`spo_agg`),
  /// each entry tying the cmb tile.
  struct PairBlock {
    InterPhase inter = InterPhase::kSequential;
    LoopOrder agg_order;
    LoopOrder cmb_order;
    double frac = 1.0;
    const TileList* agg = nullptr;
    const TileList* cmb = nullptr;
    TileList spo_agg;
  };

  /// One general block: a full boundary-strategy assignment and the counts
  /// of its phase subtree. below[(i, order, tile)] = completions of phases
  /// i+1.. given phase i's binding (the tile is part of the key only when
  /// boundary i is SP-Optimized); per_order[(i, order)] = leaves under
  /// choosing `order` at phase i with a free tile; cum holds the prefix
  /// counts over phase i's tile list where they differ per tile.
  struct KindBlock {
    std::vector<InterPhase> kinds;
    std::vector<double> fracs;
    std::vector<std::size_t> budgets;
    std::vector<const TileList*> tiles;
    std::map<std::tuple<std::size_t, std::size_t, TileKey>, std::size_t> below;
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> per_order;
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
        cum;
  };

  ChainShape shape;
  std::size_t chain_index = 0;
  std::size_t pes = 0;
  WorkloadDims dims;
  double min_util = 0.5;

  std::map<std::pair<std::size_t, std::size_t>, TileList> tile_lists;
  /// handoff_ok[i][a][b]: boundary i can stage chunks from phase i in
  /// orders[a] to phase i+1 in orders[b] (Table II hand-off feasibility).
  std::vector<std::vector<std::vector<char>>> handoff_ok;

  std::vector<PairBlock> pair_blocks;
  std::vector<KindBlock> kind_blocks;
  /// offsets[b] = index of block b's first candidate; back() = size.
  std::vector<std::size_t> offsets{0};

  Impl(ChainShape s, std::size_t index, const WorkloadDims& d, std::size_t p,
       const PipelineSearchOptions& options)
      : shape(std::move(s)), chain_index(index), pes(p), dims(d),
        min_util(options.min_static_utilization) {
    if (shape.classic) {
      build_classic(options);
    } else {
      build_general(options);
    }
  }

  void push_block(std::size_t count) {
    offsets.push_back(checked_add(offsets.back(), count));
  }

  /// Maximal power-of-two tilings of phase i at `budget` PEs.
  const TileList& tiles(std::size_t i, std::size_t budget) {
    const auto [it, fresh] = tile_lists.try_emplace({i, budget});
    if (!fresh) return it->second;
    const ChainShape::Phase& sh = shape.phases[i];
    const bool sparse_dense = sh.engine == PhaseEngine::kSparseDense;
    const auto triples =
        sparse_dense
            ? enumerate_tile_triples(
                  budget, cap_of(dims.vertices),
                  cap_of(std::max<std::size_t>(dims.max_degree, 1)),
                  cap_of(sh.in_w), min_util)
            : enumerate_tile_triples(budget, cap_of(dims.vertices),
                                     cap_of(sh.in_w), cap_of(sh.out_w),
                                     min_util);
    TileList& list = it->second;
    list.reserve(triples.size());
    for (const auto& [a, b, c] : triples) {
      TileSizes t;
      t.v = a;
      if (sparse_dense) {
        t.n = b;
        t.f = c;
      } else {
        t.f = b;
        t.g = c;
      }
      list.push_back(t);
    }
    return list;
  }

  // ---- classic two-phase chains ------------------------------------------

  DataflowDescriptor descriptor(const PairBlock& b, const TileSizes& at,
                                const TileSizes& ct) const {
    DataflowDescriptor df;
    df.inter = b.inter;
    df.phase_order = *shape.classic;
    df.pp_agg_pe_fraction = b.frac;
    df.agg = {GnnPhase::kAggregation, b.agg_order, at};
    df.cmb = {GnnPhase::kCombination, b.cmb_order, ct};
    return df;
  }

  static TileSizes spo_cmb_tile(const TileSizes& at) {
    TileSizes ct;  // T_V and T_F tied to the agg tile, T_G = 1
    ct.v = at.v;
    ct.f = at.f;
    return ct;
  }

  void add_pair_block(InterPhase inter, const LoopOrder& agg_order,
                      const LoopOrder& cmb_order, double frac) {
    // PP splits the PE array and needs at least one PE on each side.
    if (inter == InterPhase::kParallelPipeline && pes < 2) return;
    const std::size_t agg_phase = *shape.classic == PhaseOrder::kAC ? 0 : 1;
    std::size_t pes_agg = pes;
    std::size_t pes_cmb = pes;
    if (inter == InterPhase::kParallelPipeline) {
      pes_agg = pp_budget_first(pes, frac);
      pes_cmb = pes - pes_agg;
    }
    PairBlock b;
    b.inter = inter;
    b.agg_order = agg_order;
    b.cmb_order = cmb_order;
    b.frac = frac;
    b.agg = &tiles(agg_phase, pes_agg);
    b.cmb = &tiles(1 - agg_phase, pes_cmb);
    std::size_t count = 0;
    if (inter == InterPhase::kSPOptimized) {
      for (const TileSizes& at : *b.agg) {
        if (at.n != 1) continue;
        if (!descriptor(b, at, spo_cmb_tile(at)).validation_error()) {
          b.spo_agg.push_back(at);
        }
      }
      count = b.spo_agg.size();
    } else if (!descriptor(b, TileSizes{}, TileSizes{}).validation_error()) {
      // Outside SP-Optimized, Table II validation depends on the orders,
      // strategy and fraction only: every tiling shares the verdict.
      count = checked_mul(b.agg->size(), b.cmb->size());
    }
    if (count == 0) return;
    pair_blocks.push_back(std::move(b));
    push_block(count);
  }

  void build_classic(const PipelineSearchOptions& o) {
    const PhaseOrder po = *shape.classic;
    if (o.include_seq) {
      for (const LoopOrder& ao : all_loop_orders(GnnPhase::kAggregation)) {
        for (const LoopOrder& co : all_loop_orders(GnnPhase::kCombination)) {
          add_pair_block(InterPhase::kSequential, ao, co, 1.0);
        }
      }
    }
    for (const FeasiblePair& pair : feasible_pipeline_pairs(po)) {
      if (o.include_sp_generic) {
        add_pair_block(InterPhase::kSPGeneric, pair.agg, pair.cmb, 1.0);
      }
      if (o.include_pp) {
        for (const double f : o.pp_fractions) {
          add_pair_block(InterPhase::kParallelPipeline, pair.agg, pair.cmb, f);
        }
      }
    }
    if (o.include_sp_optimized) {
      const std::array<std::pair<const char*, const char*>, 2> templates =
          po == PhaseOrder::kAC
              ? std::array<std::pair<const char*, const char*>, 2>{
                    {{"VFN", "VFG"}, {"FVN", "FVG"}}}
              : std::array<std::pair<const char*, const char*>, 2>{
                    {{"NFV", "VGF"}, {"FNV", "GVF"}}};
      for (const auto& [a, c] : templates) {
        add_pair_block(InterPhase::kSPOptimized,
                       LoopOrder::parse(a, GnnPhase::kAggregation),
                       LoopOrder::parse(c, GnnPhase::kCombination), 1.0);
      }
    }
  }

  void decode_pair(const PairBlock& b, std::size_t local,
                   PipelineCandidate& c) const {
    TileSizes at;
    TileSizes ct;
    if (b.inter == InterPhase::kSPOptimized) {
      at = b.spo_agg[local];
      ct = spo_cmb_tile(at);
    } else {
      at = (*b.agg)[local / b.cmb->size()];
      ct = (*b.cmb)[local % b.cmb->size()];
    }
    lower_two_phase_candidate_into(descriptor(b, at, ct), chain_index, pes,
                                   c);
  }

  // ---- general chains ----------------------------------------------------

  void build_general(const PipelineSearchOptions& o) {
    const std::size_t n = shape.phases.size();
    const std::size_t nb = n > 0 ? n - 1 : 0;
    handoff_ok.resize(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      const ChainShape::Phase& p = shape.phases[i];
      const ChainShape::Phase& c = shape.phases[i + 1];
      handoff_ok[i].assign(p.orders.size(),
                           std::vector<char>(c.orders.size(), 0));
      for (std::size_t a = 0; a < p.orders.size(); ++a) {
        const HandoffRole prod = phase_producer_role(p.engine, p.orders[a]);
        for (std::size_t b = 0; b < c.orders.size(); ++b) {
          handoff_ok[i][a][b] = analyze_handoff(
              prod, phase_consumer_role(c.engine, c.orders[b])).feasible;
        }
      }
    }
    std::vector<double> pp_fracs;
    for (const double f : o.pp_fractions) {
      if (std::isfinite(f) && f > 0.0 && f < 1.0) pp_fracs.push_back(f);
    }
    std::vector<InterPhase> kinds(nb, InterPhase::kSequential);
    std::vector<double> fracs(nb, 0.5);
    const std::function<void(std::size_t)> choose = [&](std::size_t b) {
      if (b == nb) {
        add_kind_block(kinds, fracs);
        return;
      }
      const bool prev_chunked = b > 0 && is_chunked(kinds[b - 1]);
      // A sparse-weight phase streams W^T chunks itself and cannot also
      // consume from a chunked boundary; adjacent boundaries cannot both be
      // chunked (each phase stages through at most one).
      const bool chunk_ok = !prev_chunked && shape.phases[b + 1].engine !=
                                                 PhaseEngine::kSparseSparse;
      const auto take = [&](InterPhase k, double frac) {
        kinds[b] = k;
        fracs[b] = frac;
        choose(b + 1);
      };
      if (o.include_seq) take(InterPhase::kSequential, 0.5);
      if (o.include_sp_generic && chunk_ok) take(InterPhase::kSPGeneric, 0.5);
      if (o.include_sp_optimized) take(InterPhase::kSPOptimized, 0.5);
      if (o.include_pp && pes >= 2 && chunk_ok) {
        for (const double f : pp_fracs) {
          take(InterPhase::kParallelPipeline, f);
        }
      }
    };
    if (n > 0) choose(0);
  }

  void add_kind_block(const std::vector<InterPhase>& kinds,
                      const std::vector<double>& fracs) {
    const std::size_t n = shape.phases.size();
    KindBlock k;
    k.kinds = kinds;
    k.fracs = fracs;
    k.budgets.assign(n, pes);
    for (std::size_t b = 0; b < kinds.size(); ++b) {
      if (kinds[b] != InterPhase::kParallelPipeline) continue;
      const std::size_t first = pp_budget_first(pes, fracs[b]);
      k.budgets[b] = first;
      k.budgets[b + 1] = pes - first;
    }
    for (std::size_t i = 0; i < n; ++i) {
      k.tiles.push_back(&tiles(i, k.budgets[i]));
    }
    std::size_t count = 0;
    for (std::size_t o = 0; o < shape.phases[0].orders.size(); ++o) {
      count = checked_add(count, count_per_order(k, 0, o));
    }
    if (count == 0) return;
    kind_blocks.push_back(std::move(k));
    push_block(count);
  }

  /// The consumer binding an SP-Optimized boundary i ties to the producer
  /// `prod` when phase i+1 runs orders[order]; nullopt if the pair breaks
  /// the SP-Optimized rules or overflows the consumer's PE budget.
  std::optional<IntraPhaseDataflow> spo_consumer(
      const KindBlock& k, std::size_t i, const IntraPhaseDataflow& prod,
      std::size_t order) const {
    const ChainShape::Phase& p = shape.phases[i];
    const ChainShape::Phase& c = shape.phases[i + 1];
    const HandoffRole pr = phase_producer_role(p.engine, prod.order);
    const HandoffRole cr = phase_consumer_role(c.engine, c.orders[order]);
    IntraPhaseDataflow df;
    df.phase = taxonomy_phase(c.engine);
    df.order = c.orders[order];
    df.tiles.set(cr.row, prod.tiles.get(pr.row));
    df.tiles.set(cr.col, prod.tiles.get(pr.col));
    if (!sp_optimized_pair_ok(p.engine, prod, c.engine, df)) return std::nullopt;
    if (df.spatial_extent() > k.budgets[i + 1]) return std::nullopt;
    return df;
  }

  IntraPhaseDataflow binding(std::size_t i, std::size_t order,
                             const TileSizes& t) const {
    return {taxonomy_phase(shape.phases[i].engine), shape.phases[i].orders[order],
            t};
  }

  std::tuple<std::size_t, std::size_t, TileKey> below_key(
      const KindBlock& k, std::size_t i, std::size_t order,
      const TileSizes& t) const {
    return {i, order,
            k.kinds[i] == InterPhase::kSPOptimized ? tile_key(t) : TileKey{}};
  }

  /// Completions of phases i+1.. given phase i bound to (orders[order], t).
  std::size_t count_below(KindBlock& k, std::size_t i, std::size_t order,
                          const TileSizes& t) {
    if (i + 1 == shape.phases.size()) return 1;
    const auto key = below_key(k, i, order, t);
    if (const auto it = k.below.find(key); it != k.below.end()) {
      return it->second;
    }
    const std::size_t next_orders = shape.phases[i + 1].orders.size();
    std::size_t total = 0;
    for (std::size_t o = 0; o < next_orders; ++o) {
      switch (k.kinds[i]) {
        case InterPhase::kSequential:
          total = checked_add(total, count_per_order(k, i + 1, o));
          break;
        case InterPhase::kSPGeneric:
        case InterPhase::kParallelPipeline:
          if (handoff_ok[i][order][o]) {
            total = checked_add(total, count_per_order(k, i + 1, o));
          }
          break;
        case InterPhase::kSPOptimized:
          if (const auto df = spo_consumer(k, i, binding(i, order, t), o)) {
            total = checked_add(total, count_below(k, i + 1, o, df->tiles));
          }
          break;
      }
    }
    k.below.emplace(key, total);
    return total;
  }

  /// Leaves under choosing orders[order] at phase i with a free tile.
  std::size_t count_per_order(KindBlock& k, std::size_t i, std::size_t order) {
    if (const auto it = k.per_order.find({i, order}); it != k.per_order.end()) {
      return it->second;
    }
    const TileList& list = *k.tiles[i];
    std::size_t total = 0;
    if (i + 1 < shape.phases.size() &&
        k.kinds[i] == InterPhase::kSPOptimized) {
      std::vector<std::size_t> cum;
      cum.reserve(list.size());
      for (const TileSizes& t : list) {
        total = checked_add(total, count_below(k, i, order, t));
        cum.push_back(total);
      }
      k.cum.emplace(std::pair{i, order}, std::move(cum));
    } else if (!list.empty()) {
      total = checked_mul(list.size(), count_below(k, i, order, list.front()));
    }
    k.per_order.emplace(std::pair{i, order}, total);
    return total;
  }

  // Lookups over the counts construction memoized: decode follows the same
  // branches the counting recursion took, so every key is present.
  std::size_t below(const KindBlock& k, std::size_t i, std::size_t order,
                    const TileSizes& t) const {
    if (i + 1 == shape.phases.size()) return 1;
    return k.below.at(below_key(k, i, order, t));
  }

  void decode_kinds(const KindBlock& k, std::size_t local,
                    PipelineCandidate& c) const {
    const std::size_t n = shape.phases.size();
    c.chain_index = chain_index;
    c.boundaries.assign(k.kinds.begin(), k.kinds.end());
    c.phases.resize(n);
    c.pe_fractions.clear();
    c.legacy.reset();
    std::size_t prev = 0;  // order index chosen at phase i-1
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t orders = shape.phases[i].orders.size();
      const InterPhase up = i > 0 ? k.kinds[i - 1] : InterPhase::kSequential;
      bool chosen = false;
      for (std::size_t o = 0; o < orders && !chosen; ++o) {
        if (up == InterPhase::kSPOptimized) {
          const auto df = spo_consumer(k, i - 1, c.phases[i - 1], o);
          if (!df) continue;
          const std::size_t cnt = below(k, i, o, df->tiles);
          if (local >= cnt) {
            local -= cnt;
            continue;
          }
          c.phases[i] = *df;
        } else {
          if (is_chunked(up) && !handoff_ok[i - 1][prev][o]) continue;
          const std::size_t cnt = k.per_order.at({i, o});
          if (local >= cnt) {
            local -= cnt;
            continue;
          }
          const TileList& list = *k.tiles[i];
          std::size_t t = 0;
          if (const auto it = k.cum.find({i, o}); it != k.cum.end()) {
            const std::vector<std::size_t>& cum = it->second;
            t = static_cast<std::size_t>(
                std::upper_bound(cum.begin(), cum.end(), local) - cum.begin());
            if (t > 0) local -= cum[t - 1];
          } else {
            const std::size_t per_tile = below(k, i, o, list.front());
            t = local / per_tile;
            local %= per_tile;
          }
          c.phases[i] = binding(i, o, list[t]);
        }
        prev = o;
        chosen = true;
      }
      OMEGA_CHECK(chosen, "candidate space: decode fell off the count tree");
    }
    bool has_pp = false;
    for (const InterPhase b : k.kinds) {
      has_pp |= b == InterPhase::kParallelPipeline;
    }
    if (has_pp) {
      c.pe_fractions.assign(n, 1.0);
      for (std::size_t b = 0; b < k.kinds.size(); ++b) {
        if (k.kinds[b] != InterPhase::kParallelPipeline) continue;
        c.pe_fractions[b] = k.fracs[b];
        c.pe_fractions[b + 1] = 1.0 - k.fracs[b];
      }
    }
  }
};

CandidateSpace::CandidateSpace(const PipelineChainSpec& chain,
                               std::size_t chain_index,
                               const GnnWorkload& workload, std::size_t pes,
                               const PipelineSearchOptions& options) {
  ChainShape shape = ChainShape::of(chain, chain_index, workload.in_features);
  // General chains read only the graph extents from the dims (widths come
  // from the shape); classic chains keep the legacy layer projection.
  const WorkloadDims dims = dims_of(
      workload, shape.classic
                    ? shape.classic_layer
                    : LayerSpec{.out_features = 1,
                                .in_features = chain.in_features});
  impl_ = std::make_unique<const Impl>(std::move(shape), chain_index, dims, pes,
                                       options);
}

CandidateSpace::CandidateSpace(PhaseOrder order, const WorkloadDims& dims,
                               std::size_t pes,
                               const PipelineSearchOptions& options) {
  const LayerSpec layer{.out_features = dims.out_features,
                        .in_features = dims.in_features};
  impl_ = std::make_unique<const Impl>(
      ChainShape::of(two_phase_chain(order, layer), 0, dims.in_features), 0,
      dims, pes, options);
}

CandidateSpace::~CandidateSpace() = default;

std::size_t CandidateSpace::size() const { return impl_->offsets.back(); }

PipelineCandidate CandidateSpace::decode(std::size_t index) const {
  PipelineCandidate c;
  decode_into(index, c);
  return c;
}

void CandidateSpace::decode_into(std::size_t index,
                                 PipelineCandidate& out) const {
  OMEGA_CHECK(index < size(), "candidate space index " +
                                  std::to_string(index) + " out of range");
  const std::vector<std::size_t>& off = impl_->offsets;
  const std::size_t b = static_cast<std::size_t>(
      std::upper_bound(off.begin(), off.end(), index) - off.begin() - 1);
  const std::size_t local = index - off[b];
  if (impl_->shape.classic) {
    impl_->decode_pair(impl_->pair_blocks[b], local, out);
  } else {
    impl_->decode_kinds(impl_->kind_blocks[b], local, out);
  }
}

std::vector<PipelineCandidate> CandidateSpace::decode_all() const {
  std::vector<PipelineCandidate> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(decode(i));
  return out;
}

}  // namespace omega
