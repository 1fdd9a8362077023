(** The four coloring heuristics as one-shot graph solvers.

    - {!Chaitin}: §2.1 — spill decisions made during simplification; when a
      node must be marked for spilling the whole pass gives up on coloring
      (spill code is inserted and the Build–Simplify cycle restarts).
    - {!Briggs}: §2.2–2.3 — the paper's contribution: simplification
      removes every node (falling back to Chaitin's cost/degree order when
      all remaining degrees are >= k) and select colors optimistically,
      spilling only nodes for which all k colors are actually blocked.
    - {!Matula}: the Matula–Beck smallest-last ordering with optimistic
      select — the cost-blind variant §2.3 warns about, kept as an
      ablation.
    - {!Irc}: George–Appel iterated register coalescing ({!Irc.run}) —
      conservative coalescing (Briggs/George tests) interleaved with the
      degree-ordered Simplify loop over the move worklist Build staged
      in its [Conservative] mode, with Briggs-style optimistic select. *)

type t =
  | Chaitin
  | Briggs
  | Matula
  | Irc

type outcome =
  | Colored of int option array
    (* a proper coloring: [Some c] for every non-precolored node — except
       that under {!Irc} a coalesced node reads [None] and takes its
       surviving representative's color (resolved through the web
       aliasing the [on_coalesce] hook maintained) *)
  | Spill of int list
    (* no k-coloring found this pass; spill these live ranges *)

val name : t -> string
val of_name : string -> t option

(** [run t g ~k ~costs] attempts a k-coloring of [g]. [costs] follows
    {!Coloring.simplify}. Matula ignores [costs]. Simplification reports
    into [tele]/[timer] under {!Ra_support.Phase.Simplify} and select
    under {!Ra_support.Phase.Color} (Chaitin runs no select on a pass
    that spills, exactly as the empty Color cells of Figure 7 show).
    {!Irc} instead reports its worklist drive — simplification
    interleaved with conservative coalescing — under
    {!Ra_support.Phase.Coalesce}, and emits [irc.moves_coalesced] /
    [irc.frozen] / [irc.constrained] counters for the run's move fates.
    [buckets] is a reusable degree-bucket buffer for Matula's
    smallest-last ordering.

    [moves] (meaningful to {!Irc} only; default [[||]]) is the staged
    (dst, src) move-pair worklist for this graph — [Build.moves_int] /
    [Build.moves_flt] of a [Conservative] build. [irc_stats] accumulates
    {!Irc.stats} across calls (the pipeline shares one record over both
    class graphs of a pass); [on_coalesce] is handed through to
    {!Irc.run} so the caller can union the underlying webs per merge.

    Simplify always runs {!Coloring.simplify}. With [pool], select
    routes through the speculative parallel engine whenever
    {!Par_color.should} says it can pay — the outcome is bit-identical
    either way; [verify] additionally cross-checks that engine against
    [Coloring.select] (raising {!Par_color.Divergence} on any
    difference). {!Irc} never engages the speculative engine —
    coalescing mutates degrees and adjacency mid-loop, breaking its
    frozen-state assumption — and records the declination as a
    [par_color.declined_irc] counter whenever it would otherwise have
    engaged. *)
val run :
  ?timer:Ra_support.Timer.t ->
  ?tele:Ra_support.Telemetry.t ->
  ?buckets:Ra_support.Degree_buckets.t ->
  ?pool:Ra_support.Pool.t ->
  ?verify:bool ->
  ?moves:(int * int) array ->
  ?irc_stats:Irc.stats ->
  ?on_coalesce:(int -> int -> int) ->
  t -> Igraph.t -> k:int -> costs:float array -> outcome
