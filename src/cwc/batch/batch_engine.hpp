// Batch trajectory engine: N lanes of one model advanced in lockstep
// (paper §IV-C, Table I — the GPU-simulation direction).
//
// A simulation campaign farms out thousands of trajectories of ONE model;
// scalar `cwc::engine` instances step them one at a time, each dragging its
// own pointer-heavy term tree and per-compartment hash-map match cache
// through the cache hierarchy. The batch engine lays the ensemble out
// structure-of-arrays — and, since the vectorized-kernel rework,
// LANE-MAJOR: lanes with the same tree shape share one `class_pool` whose
// per-match propensities, per-node species counts, and per-node block
// subtotals are transposed strips `[row * capacity + lane_column]`, so the
// hot arithmetic runs lane-innermost over contiguous memory:
//
//   - per-lane control state (lane clocks, deferred-reaction times,
//     sampling-grid cursors, step counters, stall flags) lives in parallel
//     arrays indexed by lane; lane RNG streams live in a SoA
//     util::rng_lane_bank whose dense fill draws all lanes wide;
//   - propensity math goes through the rate-law bytecode tape compiled
//     into the shared cwc::compiled_model (cwc/rate_tape.hpp): zero
//     per-kind dispatch inside the per-lane loop, and the wide kernels
//     (batch_kernels.hpp) hoist every op/head branch outside the column
//     loop so the compiler auto-vectorizes it at each ISA variant below;
//   - each lockstep round is phased across the ensemble: stall tails,
//     then per-pool totals + exponential clock draws, then sample
//     emission/parking, then selection draws + firings, then one deferred
//     flush per touched pool that re-evaluates dirty propensity rows and
//     refolds dirty block rows — WIDE over the whole strip when enough
//     lanes dirtied the same row (propensities are pure functions of the
//     counts they read, so over-evaluating clean or even stale columns
//     rewrites identical bits), scalar per (row, lane) otherwise.
//
// step_quantum() advances every live lane to its quantum horizon in those
// lockstep rounds — each round executes at most one SSA step per lane, the
// way a SIMT kernel sweeps its lanes — emitting per-lane samples on the
// shared sampling grid (cwc/sampling.hpp).
//
// Lane exactness guarantee: lane i of a batch constructed with
// (seed, first_id) replays bit-for-bit the sample path of a scalar
// `cwc::engine(cm, seed, first_id + i)` driven with the same quantum
// schedule (the advance-one-quantum contract of core/quantum.hpp), under
// EITHER kernel mode. The batch engine reproduces the scalar engine's
// arithmetic exactly: the same left-to-right propensity folds, the same
// two-level selection scan with the same floating-point fallbacks, the
// same RNG draw order, and the same sampling-grid tolerance. The wide
// kernels stay exact because every vectorized operation is an element-wise
// IEEE elementary op and libm calls stay scalar per lane
// (batch_kernels.hpp).
//
// ISA dispatch: step_quantum's hot call tree (phase loops, flush, fire,
// drain, sample emission and the wide kernels) is compiled once per
// isa_level on x86-64 and each engine runs the widest variant the CPU
// supports, picked once per process — the default build runs the lanes
// at the host's SIMD width with no build option. Every variant stays
// bit-identical to the baseline-compiled scalar engine: the src/ build
// compiles with -ffp-contract=off, so no variant fuses a multiply-add.
//
// Sweep campaigns: the multi-cell constructor batches lanes from DIFFERENT
// parameter cells of one campaign — rate-constant overlays of one
// structural root (compiled_model::overlay) — into one engine. Shape
// classes, match schedules, and pools are functions of the shared
// structure, so cross-cell lanes land in the same pools and vectorize in
// the same row sweeps; the only per-cell state is the patched rate tape,
// threaded as a per-column tape choice on the scalar paths and a gathered
// per-column constant row (a_col) on the wide mass-action head.
//
// Custom rate laws (opaque callables over the full match context) and flat
// reaction networks are not batchable; `supports()` gates construction and
// the backends fall back to scalar lanes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cwc/batch/batch_kernels.hpp"
#include "cwc/compiled_model.hpp"
#include "cwc/gillespie.hpp"
#include "cwc/rule.hpp"
#include "util/rng.hpp"

namespace cwc::batch {

/// Which propensity/fold kernels the engine runs.
enum class kernel_mode : std::uint8_t {
  /// Resolve at construction: honor the CWCSIM_BATCH_KERNEL environment
  /// variable ("scalar" | "wide"), else use the wide kernels.
  automatic,
  /// The scalar-identical fallback: per-(row, lane) tape evaluation and
  /// per-lane folds only — the reference the lockstep tests pin the wide
  /// kernels against.
  scalar,
  /// Lane-innermost wide kernels over rows enough lanes dirtied; rows
  /// below the width thresholds still evaluate scalar, so narrow batches
  /// degrade gracefully.
  wide,
};

/// SIMD variant of the engine's hot paths (see "ISA dispatch" above).
enum class isa_level : std::uint8_t {
  baseline,  ///< the build's own target (SSE2 x86-64 by default)
  avx2,      ///< + AVX2, BMI1/2, POPCNT: x86-64-v3 minus FMA
  avx512,    ///< + AVX-512 F/CD/BW/DQ/VL: x86-64-v4 minus FMA
};

/// "baseline" | "avx2" | "avx512".
const char* isa_name(isa_level v) noexcept;

/// Variants this build carries AND this CPU runs, ascending; always
/// starts with baseline (the only entry off x86-64).
std::vector<isa_level> supported_isas();

/// The per-process pick every engine runs: the widest supported variant,
/// resolved once from the CPU's features.
isa_level default_isa();

namespace detail {

/// Test seam, not an option: engines constructed while the guard lives —
/// on any thread, so backend workers too — run variant `v` (which must be
/// supported) instead of default_isa(), so the exactness suites can pin
/// every variant. Guards nest; do not overlap them across threads.
class scoped_isa_override {
 public:
  explicit scoped_isa_override(isa_level v);
  ~scoped_isa_override();
  scoped_isa_override(const scoped_isa_override&) = delete;
  scoped_isa_override& operator=(const scoped_isa_override&) = delete;

 private:
  int prev_;  ///< the pin this guard replaced (-1: none)
};

}  // namespace detail

class batch_engine {
 public:
  /// Construct `width` lanes over one shared compiled artifact. Lane i is
  /// trajectory `first_trajectory_id + i` of the campaign keyed by `seed` —
  /// exactly the (seed, id) stream a scalar engine for that trajectory
  /// would own. Requires supports(*cm).
  batch_engine(std::shared_ptr<const compiled_model> cm, std::uint64_t seed,
               std::uint64_t first_trajectory_id, std::size_t width,
               kernel_mode mode = kernel_mode::automatic);

  /// One lane of a multi-cell batch: which trajectory stream it owns and
  /// which sweep cell's rate constants it runs under.
  struct lane_desc {
    std::uint64_t trajectory_id = 0;
    std::uint32_t cell = 0;  ///< index into the cells vector
  };

  /// Sweep-cell form: lanes from different parameter cells of one campaign
  /// share the batch. All cells must be rate-constant overlays of ONE
  /// structural root (compiled_model::overlay), so every lane has the same
  /// tree shapes, match schedules, and dependency index — they pool and
  /// vectorize together; only the constant-scale operand of mass-action
  /// propensities differs per lane. Lane i replays bit-for-bit the scalar
  /// engine `cwc::engine(cells[lanes[i].cell], seed, lanes[i].trajectory_id)`
  /// under the same quantum schedule. Requires supports() on every cell.
  batch_engine(std::vector<std::shared_ptr<const compiled_model>> cells,
               std::uint64_t seed, std::vector<lane_desc> lanes,
               kernel_mode mode = kernel_mode::automatic);

  /// True when `cm` is a tree model whose rate laws all have closed forms
  /// (no custom callables) — the precondition for SoA evaluation.
  static bool supports(const compiled_model& cm);

  std::size_t width() const noexcept { return lane_pool_.size(); }
  std::uint64_t lane_id(std::size_t lane) const { return lane_ids_[lane]; }
  /// Sweep cell the lane runs under (0 for single-model batches).
  std::uint32_t lane_cell(std::size_t lane) const { return lane_cell_[lane]; }
  double time(std::size_t lane) const { return time_[lane]; }
  std::uint64_t steps(std::size_t lane) const { return steps_[lane]; }
  bool stalled(std::size_t lane) const { return stalled_[lane] != 0; }

  /// The kernel mode actually running (never `automatic`): what
  /// construction resolved from the requested mode and the environment.
  kernel_mode active_kernel() const noexcept {
    return use_wide_ ? kernel_mode::wide : kernel_mode::scalar;
  }

  /// The ISA variant step_quantum runs (fixed at construction).
  isa_level active_isa() const noexcept { return isa_; }

  /// Number of distinct tree shapes currently compiled for this batch
  /// (diagnostic: 1 for shape-static models like Neurospora).
  std::size_t num_shape_classes() const noexcept { return num_classes_; }

  /// Advance every live lane (time < t_end) one scheduling quantum in
  /// lockstep: lane horizon = min(time + quantum, t_end), samples appended
  /// to out[lane] for every crossed grid point, and lanes that stall are
  /// fast-forwarded to t_end with the frozen tail emitted — the
  /// advance-one-quantum contract every backend worker uses
  /// (core/quantum.hpp). out is resized to width(); existing contents of
  /// each out[lane] are preserved (samples append).
  void step_quantum(double quantum, double t_end, double sample_period,
                    std::vector<std::vector<trajectory_sample>>& out);

  /// Rebuild lane `lane`'s state as a term tree (deep copy) — the testing
  /// hook for comparing batch lanes against scalar engines' state().
  std::unique_ptr<term> materialize_state(std::size_t lane) const;

 private:
  friend struct isa_entry;  // the per-ISA step_quantum entry points
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct sp_count {
    species_id sp = 0;
    std::uint64_t n = 0;
  };
  struct sp_delta {
    species_id sp = 0;
    std::int64_t d = 0;
  };
  struct comp_init {
    comp_type_id type = 0;
    std::vector<sp_count> wrap;
    std::vector<sp_count> content;
  };

  /// Static per-rule application plan (sparse stoichiometry, read
  /// footprints, net deltas) — derived once from the compiled model.
  /// Propensity arithmetic itself lives in the compiled model's rate tape.
  struct rule_plan {
    std::vector<sp_count> reactants;   ///< host-content LHS, ascending species
    std::vector<sp_count> wrap_req;    ///< bound child's membrane requirement
    std::vector<sp_count> child_req;   ///< bound child's content LHS
    std::vector<sp_delta> host_delta;  ///< net host-content change (non-zero)
    std::vector<sp_delta> child_delta; ///< net bound-child-content change
    std::vector<species_id> host_reads;   ///< host-content species read
    std::vector<species_id> child_reads;  ///< child-content species read
    std::vector<comp_init> creations;
    bool has_child = false;
    comp_type_id child_type = 0;
    child_fate fate = child_fate::keep;
    bool structural = false;  ///< creates/dissolves/removes compartments
    bool has_driver = false;  ///< MM / Hill: reads a driver copy number
    bool driver_in_child = false;
    species_id driver = 0;
  };

  /// One match of the shared schedule: host compartment (pre-order index),
  /// rule, and the bound child (pre-order index + position in the host's
  /// child list), kNone for childless matches.
  struct match_desc {
    std::uint32_t host = 0;
    std::uint32_t rule = 0;
    std::uint32_t child = kNone;
    std::uint32_t child_pos = kNone;
  };

  /// Immutable per-tree-shape schedule shared by every lane of that shape.
  struct shape_class {
    struct node {
      comp_type_id type = 0;
      std::int32_t parent = -1;  ///< pre-order index, -1 for the root
    };
    std::vector<node> nodes;  ///< pre-order
    std::vector<std::vector<std::uint32_t>> children;  ///< per node, in order
    std::vector<match_desc> matches;  ///< canonical enumeration order
    /// Per node: contiguous match range (matches are host-major).
    std::vector<std::uint32_t> block_first;
    std::vector<std::uint32_t> block_count;
    /// Dirty index: [node * num_species + species] -> matches whose
    /// propensity reads that count (as host content or bound-child content).
    std::vector<std::vector<std::uint32_t>> touched;
    std::vector<std::uint64_t> key;  ///< (type, parent) encoding (registry)
  };

  struct transition;  // defined below (class_pool caches pointers to them)
  struct family;      // tail-slot family sharing one pool (defined below)

  /// The shared lane-major state of every lane of one shape class. All
  /// strips are `[row * cap + column]` with one column per resident lane;
  /// columns of departed lanes keep stale-but-defined values (wide sweeps
  /// may compute garbage there — it is never read for decisions, and a
  /// re-allocated column is fully overwritten at commit). Capacity starts
  /// small and doubles on demand up to the batch width: shape-churning
  /// models scatter lanes over many classes, and right-sized strips keep
  /// the pool working set cache-resident (cap is only a stride — growing
  /// it re-lays rows out without touching any column's values).
  struct class_pool {
    const shape_class* cls = nullptr;
    std::size_t cap = 0;  ///< column capacity (<= batch width)
    std::vector<std::uint64_t> content;  ///< [(node*S + sp) * cap + col]
    std::vector<std::uint64_t> wrap;     ///< [(node*S + sp) * cap + col]
    std::vector<double> prop;            ///< [match * cap + col]
    std::vector<double> block_sub;       ///< [node * cap + col]
    std::vector<double> total;           ///< [col], refreshed per round
    /// [col] -> sweep cell of the resident lane (stale-but-defined for
    /// free columns, like every other strip; 0 throughout single-cell
    /// batches). Read only by the multi-cell constant gather.
    std::vector<std::uint32_t> cell_of;
    std::vector<std::uint32_t> free_cols;
    std::size_t live = 0;

    // Round-scoped dirty aggregation: per row, a bitmask of the columns
    // whose inputs changed this round (OR is idempotent, so repeated marks
    // need no dedupe), plus a round stamp that enrolls the row in the
    // dirty list exactly once. The flush popcounts each mask to decide
    // wide sweep vs per-set-bit scalar, then zeroes it — masks are always
    // all-zero between flushes.
    std::uint32_t mask_words = 0;            ///< (cap + 63) / 64
    std::vector<std::uint64_t> match_mask;   ///< [match*mask_words] dirty cols
    std::vector<std::uint64_t> block_mask;   ///< [node*mask_words]
    std::vector<std::uint64_t> match_round;  ///< [match] round last dirtied
    std::vector<std::uint64_t> block_round;  ///< [node]
    std::vector<std::uint32_t> dirty_mi;  ///< distinct dirty matches, this round
    std::vector<std::uint32_t> dirty_b;   ///< distinct dirty blocks
    std::uint64_t flush_round = 0;   ///< in flush_pools_ for this round
    std::uint64_t totals_round = 0;  ///< totals bookkeeping round stamp
    std::uint32_t totals_need = 0;   ///< lanes reading totals this round
    bool totals_wide = false;        ///< total[] row is valid this round
    /// Flood mode: once enough lanes fired into this pool in one round,
    /// per-row dirty marking stops paying — the flush re-evaluates every
    /// match row and refolds every block wide instead (propensity purity
    /// makes the blanket sweep rewrite identical bits).
    std::uint64_t fires_round = 0;  ///< round the fire counter belongs to
    std::uint32_t fires_n = 0;      ///< fires into this pool this round
    bool flood = false;             ///< blanket-sweep flush this round
    /// Pre-order node-row prefix that can be nonzero for ANY resident lane
    /// (== nodes.size() for regular pools; skeleton + max live K for family
    /// pools, ratcheting up on append/migrate). Rows past it are exactly
    /// zero in every live column, so totals folds and selection walks can
    /// stop there without perturbing a bit.
    std::uint32_t hot_nodes = 0;
    /// Non-null when this pool is a family layout pool: lanes here have a
    /// per-lane slot count (lane_slots_) and structural slot edits happen
    /// in place instead of through the generic stage-and-commit path.
    family* fam = nullptr;
    /// Per-match structural-transition cache: tr_cache[mi] short-circuits
    /// the transition hash lookup for repeat firings (mi fully determines
    /// the (rule, host, child) key within this class).
    std::vector<const transition*> tr_cache;
  };

  /// Cached outcome of one structural rewrite kind: firing rule `r` at
  /// host `h` (binding child `c`) in shape class `F` always yields the
  /// same target class and the same old->new node mapping — a pure
  /// function of (F, r, h, c). Cached so repeated structural churn skips
  /// the topology walk and class interning entirely.
  struct transition {
    const shape_class* to = nullptr;
    std::vector<std::uint32_t> origin;   ///< new node -> old node / creation
    std::uint32_t new_host = kNone;
    std::uint32_t new_bound = kNone;     ///< kept bound child, if any
  };

  /// Tail-slot family: the classes {skeleton + K identical leaf children of
  /// one host node} for K = 0..max_slots share ONE pool laid out for the
  /// widest member (`fcls`). A member's match list is a subsequence of the
  /// fcls match list (same blocks, same per-rule groups, slots in index
  /// order), and every row a member lacks holds exact +0.0 — adding +0.0
  /// anywhere in a non-negative left-to-right fold, and skipping `<= 0`
  /// entries in the selection scan, are both bit-transparent, so the
  /// lockstep arithmetic runs UNCHANGED on the family layout. Eligibility
  /// (family_entry_for) statically guarantees the +0.0 invariant: every
  /// slot-involving propensity must evaluate to exactly +0.0 when the
  /// slot's counts are all zero. The payoff: creating a slot (append) and
  /// dissolving one (shift) become O(slot) in-place column edits instead of
  /// the generic O(tree) stage-and-commit, and shape-churning lanes stop
  /// scattering across per-K pools — rounds stay dense, wide sweeps pay.
  struct family {
    const shape_class* fcls = nullptr;   ///< layout class: skeleton+max slots
    std::vector<std::uint64_t> skel_key; ///< shape key of the slot-free prefix
    std::uint32_t skeleton_n = 0;        ///< pre-order nodes before the slots
    std::uint32_t slot_parent = 0;       ///< host node of the slot run
    comp_type_id slot_type = 0;
    std::uint32_t max_slots = 0;
    /// Host-block prop rows binding slot s (one per slot-binding rule, in
    /// declaration order) — the rows an append writes / a dissolve shifts.
    std::vector<std::vector<std::uint32_t>> host_rows_of_slot;
    class_pool* pool = nullptr;
    /// Member-class match row -> fcls row, per member K (lazy: only the
    /// generic-exit and migration paths need a row map).
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> rowmaps;
  };

  void build_plans();
  const shape_class* intern_class(
      const std::vector<shape_class::node>& nodes,
      const std::vector<std::vector<std::uint32_t>>& kids);
  /// Pool for `cls`, created on first use with room for at least
  /// `min_cols` columns (0 = the default starting capacity).
  class_pool& pool_for(const shape_class* cls, std::size_t min_cols = 0);
  /// Double the pool's column capacity (strips re-laid at the new stride;
  /// column ids and values are preserved).
  void grow_pool(class_pool& P);
  std::uint32_t alloc_col(class_pool& P);
  void free_col(class_pool& P, std::uint32_t col);
  const transition& find_transition(const shape_class& C, const match_desc& md,
                                    const rule_plan& rp);
  /// Tape evaluation of match `mi` over dense (stride-1) per-node rows —
  /// construction protos and structural staging. `T` is the evaluating
  /// lane's cell tape (tape_ outside multi-cell batches).
  double eval_match_dense(const rate_tape& T, const shape_class& C,
                          std::uint32_t mi, const std::uint64_t* content,
                          const std::uint64_t* wrap) const;
  /// Tape evaluation of match `mi` for one pool column (stride = cap).
  double eval_match_pool(const class_pool& P, std::uint32_t mi,
                         std::uint32_t col) const;
  /// Scalar total fold over the first `nb` block subtotals of one column
  /// (pass the lane's live node count — trailing rows are exact zeros).
  double fold_total_col(const class_pool& P, std::uint32_t col,
                        std::uint32_t nb) const;
  /// Pre-order node count of the lane's own term (skeleton + K inside a
  /// family pool, the full class elsewhere).
  std::uint32_t live_nodes(std::size_t lane) const;
  void resum_block_col(class_pool& P, std::uint32_t b, std::uint32_t col);
  void flush_pool(class_pool& P);
  /// Enroll P in this round's flush list (idempotent per round).
  void touch_pool(class_pool& P);
  /// Dirty-mark one match row (and its block) for column word/bit.
  void mark_match(class_pool& P, std::uint32_t mi, std::uint32_t word,
                  std::uint64_t bit);
  void mark_block(class_pool& P, std::uint32_t b, std::uint32_t word,
                  std::uint64_t bit);
  /// Dirty-mark every match reading (node, species) as an input.
  void mark_reads(class_pool& P, std::uint32_t node, species_id s,
                  std::uint32_t word, std::uint64_t bit);
  /// Zero every strip cell of one column (recycled family columns must
  /// honor the rows-above-K-are-zero invariant).
  void zero_col(class_pool& P, std::uint32_t col);
  /// Per-round fire bookkeeping for one pool; true once the pool floods
  /// (caller skips per-fire mask marking — the flush blanket-sweeps).
  bool note_fire(class_pool& P);
  /// The family (existing or newly built) whose member set contains `C`,
  /// nullptr when C has no eligible trailing slot run. Cached per class.
  family* family_entry_for(const shape_class* C);
  /// The member class of F with K slots (interned on demand).
  const shape_class* member_class(const family& F, std::uint32_t K);
  /// Member-K match row -> fcls row (lazy, cached in F.rowmaps).
  const std::vector<std::uint32_t>& family_rowmap(family& F, std::uint32_t K);
  /// Re-layout the lane's column into F's pool (pure bit-copy; the lane's
  /// current class must be a member of F).
  void migrate_to_family(std::size_t lane, family& F);
  /// In-place structural slot edits on a family-pool column.
  void family_append(std::size_t lane, const match_desc& md,
                     const rule_plan& rp);
  void family_dissolve(std::size_t lane, const match_desc& md,
                       const rule_plan& rp);
  void record_sample(std::size_t lane, double at,
                     std::vector<trajectory_sample>& out);
  void emit_frozen_tail(std::size_t lane, double t_end, double sample_period,
                        std::vector<trajectory_sample>& out);
  void fire(std::size_t lane, double target);
  void apply_fast(class_pool& P, std::uint32_t col, const match_desc& md,
                  const rule_plan& rp);
  void apply_structural(std::size_t lane, const match_desc& md,
                        const rule_plan& rp);
  /// The generic stage-and-commit rewrite over explicit class `C` (the
  /// lane's actual tree shape: P.cls, or the member class when the lane
  /// leaves a family pool). `prop_rowmap`, when non-null, maps C's match
  /// rows to the lane's pool rows for old-propensity reads.
  void apply_generic(std::size_t lane, const shape_class& C,
                     const match_desc& md, const rule_plan& rp,
                     const std::uint32_t* prop_rowmap);
  /// step_quantum's body: always inlined, with its whole hot call tree,
  /// into one entry point per isa_level.
  void run_quantum(double quantum, double t_end, double sample_period,
                   std::vector<std::vector<trajectory_sample>>& out);
  /// Sparse-tail fast path: advance one lane to its quantum horizon in a
  /// tight scalar loop (per-lane draws, immediate flush after each fire) —
  /// bit-identical to the lockstep rounds, minus the per-round phase
  /// machinery that dominates when few lanes are live.
  void drain_lane(std::size_t lane, double t_end, double sample_period,
                  std::vector<trajectory_sample>& out);

  std::shared_ptr<const compiled_model> cm_;
  const rate_tape* tape_ = nullptr;  ///< cm_'s tape (kept hot)
  std::size_t num_species_ = 0;
  std::size_t num_rules_ = 0;
  std::vector<rule_plan> plans_;

  // ---- sweep-cell state (degenerate single-cell values otherwise) -----
  /// The cell artifacts, cells_[0] == cm_. Structure (shape classes,
  /// plans, dependency index) comes from the shared root; per-cell state
  /// is exactly the patched rate tapes.
  std::vector<std::shared_ptr<const compiled_model>> cells_;
  std::vector<const rate_tape*> cell_tapes_;  ///< cells_[c]'s tape
  /// [cell * num_rules_ + rule] -> that cell tape's constant-scale operand
  /// (the only per-cell wide-kernel input; gathered per column into
  /// a_scratch_ for mass-action rows).
  std::vector<double> cell_a_;
  std::vector<std::uint64_t> lane_ids_;   ///< [lane] trajectory id
  std::vector<std::uint32_t> lane_cell_;  ///< [lane] sweep cell
  /// More than one cell resident: per-column tape selection and the
  /// wide-kernel constant gather switch on. False keeps every single-model
  /// path byte-identical to the pre-sweep engine.
  bool multi_cell_ = false;

  /// Cell tape whose constants govern pool column / lane (the root tape in
  /// single-cell batches — same object, same bits).
  const rate_tape* tape_for_col(const class_pool& P, std::uint32_t col) const {
    return multi_cell_ ? cell_tapes_[P.cell_of[col]] : tape_;
  }
  const rate_tape* tape_for_lane(std::size_t lane) const {
    return multi_cell_ ? cell_tapes_[lane_cell_[lane]] : tape_;
  }
  /// Per-column mass-action constants for a wide sweep of `rule`'s row, or
  /// nullptr when the shared pg.a is already right for every column
  /// (single-cell batches and every non-mass-action head).
  const double* gather_cell_a(const class_pool& P, std::uint32_t rule,
                              tape_head head);

  isa_level isa_ = isa_level::baseline;
  bool use_wide_ = false;
  /// Minimum dirty-column count for a row sweep to go wide (SIZE_MAX in
  /// scalar mode, so the fallback never touches the wide kernels).
  std::size_t wide_eval_min_ = 0;
  std::size_t wide_fold_min_ = 0;
  std::size_t wide_total_min_ = 0;
  /// Fires into one pool in one round past which per-row dirty marking is
  /// dropped in favor of a blanket wide flush (SIZE_MAX in scalar mode).
  std::size_t flood_min_ = 0;
  /// Lockstep rounds pay a fixed phase cost per live lane; once the
  /// live-lanes-per-touched-pool density falls below this, the quantum
  /// finishes in per-lane drain loops instead (kernel-mode independent —
  /// a control-flow choice, not an arithmetic one).
  std::size_t drain_density_ = 0;

  // Shape-class registry: hash of the (type, parent) key -> classes.
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<shape_class>>>
      classes_by_hash_;
  std::size_t num_classes_ = 0;
  // One pool per shape class with any resident history.
  std::unordered_map<const shape_class*, std::unique_ptr<class_pool>> pools_;
  // Structural-transition cache: packed (from class, rule, host, child)
  // key -> transition, hash-bucketed with full-key disambiguation.
  // Transitions are boxed so class_pool::tr_cache pointers stay stable as
  // buckets grow.
  std::unordered_map<
      std::uint64_t,
      std::vector<std::pair<std::pair<const shape_class*, std::uint64_t>,
                            std::unique_ptr<transition>>>>
      transitions_;
  // Tail-slot families plus the per-class entry decision cache
  // (nullptr = class has no eligible slot run).
  std::vector<std::unique_ptr<family>> families_;
  std::unordered_map<const shape_class*, family*> entry_cache_;

  // ---- ensemble state, SoA across lanes ------------------------------
  std::vector<class_pool*> lane_pool_;
  std::vector<std::uint32_t> lane_col_;
  /// Slot count K of lanes resident in a family pool (untouched elsewhere).
  std::vector<std::uint32_t> lane_slots_;
  std::vector<double> time_;
  std::vector<double> pending_;          ///< deferred reaction time
  std::vector<std::uint8_t> has_pending_;
  std::vector<std::uint64_t> next_sample_k_;
  /// sample_time(next_sample_k_, period) memoized per quantum (the grid
  /// test runs twice per lane-round; the product only changes on advance).
  std::vector<double> next_sample_t_;

  std::vector<std::uint64_t> steps_;
  std::vector<std::uint8_t> stalled_;
  /// Lane completed a quantum with time >= t_end (cleared if a later
  /// step_quantum raises the horizon).
  std::vector<std::uint8_t> done_;
  std::vector<double> q_horizon_;
  std::vector<double> q_emit_horizon_;  ///< q_horizon + sampling tolerance
  util::rng_lane_bank rng_;

  // Global round counter driving the per-row dirty-list dedupe stamps
  // (drain loops advance it per fire so the stamps stay unique).
  std::uint64_t round_ = 0;

  // Reused scratch (no per-step allocation once warmed up).
  kernels::wide_scratch wide_scratch_;
  std::vector<double> a_scratch_;  ///< gathered per-column cell constants
  std::vector<std::uint32_t> active_lanes_;  ///< round list of one quantum
  std::vector<std::uint32_t> draw_list_;     ///< lanes drawing a clock
  std::vector<std::uint32_t> fire_list_;     ///< lanes firing this round
  std::vector<double> u_scratch_;            ///< batch uniform draws
  std::vector<double> total_scratch_;        ///< per-lane totals this round
  std::vector<double> t_next_scratch_;       ///< per-lane tentative times
  std::vector<class_pool*> totals_pools_;    ///< pools with totals readers
  std::vector<class_pool*> flush_pools_;     ///< pools with dirty rows
  std::vector<std::uint64_t> obs_scratch_;
  // Structural-rewrite staging (dense, stride 1; scattered on commit).
  std::vector<std::uint32_t> host_kids_scratch_;
  std::vector<shape_class::node> new_nodes_;
  std::vector<std::vector<std::uint32_t>> new_children_;
  std::vector<std::uint32_t> origin_;  ///< new id -> old id / creation
  std::vector<std::uint64_t> new_content_;
  std::vector<std::uint64_t> new_wrap_;
  std::vector<double> new_prop_;
  std::vector<double> new_block_sub_;
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::uint32_t> eval_list_;    ///< matches to re-evaluate
  std::vector<std::uint8_t> changed_host_;  ///< host species changed by fire
};

}  // namespace cwc::batch
