open Ra_analysis

(** The Build phase of Figure 4: construct per-class interference graphs
    over webs, aggressively coalescing copies until fixpoint.

    Node layout per class graph: nodes [0 .. k-1] are the physical
    registers (precolored); node [k + j] is the j-th class web
    representative. Interference edges:
    - at each definition, the defined web interferes with every web of the
      same class live after the instruction — except, for a copy
      [Mov (d, s)], the source web [s];
    - at each call, every caller-save physical register interferes with
      every web live across the call (the call's own result excluded);
    - webs live on procedure entry (arguments, possibly-uninitialized
      locals) interfere pairwise — they are all "defined" at entry.

    Coalescing (Chaitin's aggressive kind): a copy whose source and
    destination webs do not interfere is merged and liveness refreshed,
    repeating until no copy can be merged. Copies touching spill
    temporaries are left alone so spill code stays intact. A round that
    merges something never needs a whole graph: it asks an interference
    query for its candidate copies only (the same answers the graph
    would give), and the graph is built once, in the round that merges
    nothing.

    The per-block edge scan — the dominant cost of every allocation
    pass — stages, then replays: it pushes each block's interferences
    into a flat pair buffer in scan order, and the buffers are then
    streamed into the graphs in block order, so adjacency insertion
    order (which coloring outcomes depend on) is the scan's own.

    A pass's round-0 scan can also run *incrementally* against an
    {!Edge_cache}: only the blocks that received spill code since the
    previous pass are rescanned; every other block replays its cached
    pair sequence, renamed through {!Webs.rebuild}'s renumbering. The
    replayed event stream is identical to a from-scratch scan's, so the
    resulting graphs (adjacency order included) are bit-identical. *)

(** Raised when a [verify] cross-check finds the cache-backed graph, an
    interference-query answer, a [Conservative] round graph, or the
    refreshed liveness differing from an uncached recomputation. *)
exception Divergence of string

type t = {
  webs : Webs.t;
  alias : Ra_support.Union_find.t; (* web id -> coalesced class *)
  int_graph : Igraph.t;
  flt_graph : Igraph.t;
  node_of_web : int array; (* rep web id -> node id in its class graph *)
  web_of_node_int : int array; (* node id - k -> rep web id *)
  web_of_node_flt : int array;
  moves_coalesced : int;
  base_live : Liveness.t;
    (* web-granularity liveness under the identity aliasing (coalescing
       iteration 0) — the allocation context seeds the next spill pass's
       build from it via [Liveness.update] *)
  rounds : int;
    (* coalescing rounds this build ran: 1 + the rounds that merged
       something ([Aggressive] builds a graph in the last one only) *)
  cache_hits : int; (* blocks replayed from the edge cache (round 0) *)
  cache_misses : int; (* blocks rescanned at round 0 (0 without cache) *)
  moves_int : (int * int) array;
    (* [Conservative] only: the distinct int-class move pairs, as
       (dst, src) node ids of this build's graph, in first-occurrence
       scan order, spill-temp endpoints excluded — the move worklist the
       IRC heuristic coalesces during Simplify. [||] otherwise. *)
  moves_flt : (int * int) array; (* likewise for the float class *)
}

(** How {!build} treats copies.
    - [Aggressive]: Chaitin's scheme — merge any non-interfering copy and
      rebuild until fixpoint (the seed behavior; [~coalesce:true]).
    - [Conservative]: the same fixpoint, but every merge is additionally
      gated on a Briggs safety test (< k significant neighbors in the
      union adjacency) against that round's exact graph — merges that
      cannot create spills. The graphs are scanned at round 0 and then
      kept as an in-place round graph: a merging round clears the rows
      of the classes it merged and re-derives the survivors' rows from
      the blocks where they are live or occur, since edges between
      unmerged classes cannot change. The graph handed to coloring is
      scanned once more, in the round that merges nothing (when that is
      not round 0). The move pairs left unmerged at fixpoint are staged
      into [moves_int]/[moves_flt] for the IRC heuristic to coalesce
      conservatively *during* Simplify.
    - [Off]: merge nothing, stage nothing ([~coalesce:false]). *)
type coalesce_mode =
  | Aggressive
  | Conservative
  | Off

(** Per-block cache of the round-0 edge scan's pair sequences, owned by
    the allocation context (one per context, reused across passes and
    procedures of a run). Entries are keyed by CFG block and store
    *web-granular* pairs, so they survive the spill pass's renumbering;
    the invalidation protocol is the caller's contract:

    - {!Edge_cache.clear} before an unrelated procedure (or to drop all
      state): every block rescans on the next build.
    - {!Edge_cache.remap} between spill passes of the *same* procedure:
      renames surviving web ids through {!Webs.rebuild}'s canonical
      old-to-new map (dropping pairs that touch a retired web) and
      invalidates the blocks that received spill code — the same dirty
      set handed to {!Liveness.update}.

    Only [Conservative] and [Off] builds take one, and only their
    round-0 scan reads it (later [Conservative] rounds update their
    round graph in place, and the final scan runs uncached);
    {!build} raises [Invalid_argument] when an [Aggressive] build is
    given a cache. *)
module Edge_cache : sig
  type t

  val create : unit -> t

  (** Drop every entry; the next cache-backed build rescans everything. *)
  val clear : t -> unit

  (** Invalidate the given blocks (out-of-range ids ignored). *)
  val invalidate_blocks : t -> int list -> unit

  (** Cross-pass renumbering: [old_to_new.(w)] is web [w]'s id after
      {!Webs.rebuild}, or [-1] if the pass retired it. [dirty_blocks] are
      the blocks whose instructions changed (spill code); they are
      invalidated, every other block's entry is renamed in place. *)
  val remap : t -> old_to_new:int array -> dirty_blocks:int list -> unit

  (** Blocks replayed / rescanned by the most recent {!build} using this
      cache (its round-0 scan). *)
  val hits : t -> int

  val misses : t -> int

  (** Test hook: corrupt one valid entry with an edge no scan ever
      stages, so the next verified cache-backed build must raise
      {!Divergence}. Returns [false] if no entry was valid. *)
  val poison : t -> bool
end

(** Test hook for the per-round cross-checks: when set, every
    [Aggressive] coalescing round flips the query answer of its first
    candidate move, and every [Conservative] round flips the round-graph
    edge between that move's two classes. A build with [verify] must
    then raise {!Divergence}. *)
val seeded_query_flip : bool ref

(** [coalesce_mode], when given, overrides the boolean [coalesce] knob
    ([~coalesce:true] means [Aggressive], [false] means [Off]); it is how
    the IRC pipeline requests [Conservative] staging without disturbing
    the legacy callers. Both paths emit [coalesce.rounds] and
    [coalesce.moves_remaining] counters on [tele] (the distinct
    uncoalesced move pairs left at exit), so aggressive and conservative
    coalescing are comparable in traces.

    [live0], when given, must be the liveness of [proc] under
    {!Webs.numbering} of [webs] — it spares the iteration-0 solve. Later
    coalescing iterations re-solve through {!Liveness.refresh}, which
    recomputes only the liveness columns of the classes the previous
    round merged; an [Aggressive] round likewise asks the interference
    query again only for the moves touching such a class and carries
    every other candidate's answer forward. [scratch], when
    given, is a pair of graph buffers (int class, flt class) that every
    iteration {!Igraph.reset}s and builds into: the returned [t] then
    aliases those buffers, which stay valid until the next build that
    reuses them. [touched] supplies the coalescing scan's scratch set.
    [cache] makes the scan incremental (see {!Edge_cache}). [verify]
    cross-checks the cached graphs against an uncached rebuild, and,
    every fixpoint round,
    an [Aggressive] round's interference-query answers against that
    rebuild's edges, a [Conservative] round graph's edges and degrees
    against that rebuild, and the refreshed liveness against a full
    solve, raising {!Divergence} on any difference. Results are
    bit-identical with and without a cache.

    [tele] (default {!Ra_support.Telemetry.null}) receives the build's
    internal spans: {!Ra_support.Phase.Scan} around every edge scan,
    interference query and round-graph update,
    {!Ra_support.Phase.Liveness} around solves and refreshes,
    {!Ra_support.Phase.Coalesce} around the copy-merge scan, and
    {!Ra_support.Phase.Verify} around the [verify] cross-checks. *)
val build :
  Machine.t ->
  Ra_ir.Proc.t ->
  Ra_ir.Cfg.t ->
  webs:Webs.t ->
  ?coalesce:bool ->
  ?coalesce_mode:coalesce_mode ->
  ?live0:Liveness.t ->
  ?scratch:Igraph.t * Igraph.t ->
  ?touched:Ra_support.Bitset.t ->
  ?cache:Edge_cache.t ->
  ?verify:bool ->
  ?tele:Ra_support.Telemetry.t ->
  unit ->
  t

val graph_of_class : t -> Ra_ir.Reg.cls -> Igraph.t

(** Representative web of a node in the given class's graph.
    Raises [Invalid_argument] on a precolored node. *)
val web_of_node : t -> Ra_ir.Reg.cls -> int -> int

(** Node of a web (any member; resolved through [alias]). *)
val node_of : t -> int -> int

(** Per-representative-web spill costs ({!Spill_costs.rep_costs} with
    this build's webs and aliases) — class-independent, so callers
    costing both class graphs compute it once and pass it to
    {!node_costs}. *)
val rep_costs : ?base:float -> t -> Ra_ir.Proc.t -> float array

(** Spill costs per node of a class graph (physical nodes get
    [infinity]); [base] is the per-loop-depth weight (default 10).
    [rep_costs] supplies the shared per-web costs (defaults to
    recomputing them, in which case [base] applies). *)
val node_costs :
  ?base:float ->
  ?rep_costs:float array ->
  t ->
  Ra_ir.Proc.t ->
  Ra_ir.Reg.cls ->
  float array
