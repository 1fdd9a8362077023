(** A reusable pool of worker domains for data-parallel loops.

    Hand-rolled on [Domain] + [Mutex]/[Condition]: a pool of [jobs - 1]
    worker domains drains a queue of batches, where a batch is an indexed
    loop [f 0 .. f (n-1)] whose iterations may run in any order on any
    domain. The submitting caller participates in draining its own batch,
    so a task running on a worker may itself submit a nested batch without
    deadlock — the nested batch is drained by the domains that reach it,
    the submitter included.

    Determinism is the client's problem by construction: tasks must write
    to disjoint (per-index) state, and any order-sensitive combination of
    their results must happen after {!run} returns, in index order. The
    [RA_RACE_CHECK] dynamic detector checks the disjointness: the pool
    logs each batch's submit, task start/end and join as its
    happens-before edges. *)

type t

(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1]).
    A pool with [jobs = 1] runs every batch inline in the caller. *)
val create : jobs:int -> t

(** [of_scheduler ~jobs run] is a pool façade over a work-stealing DAG
    scheduler: it owns no domains, and every batch with [n > 1] is
    executed by [run ~n f] (the scheduler's blocking batch primitive,
    see {!Scheduler.batch_run}) on the scheduler's domains. [Race_log]
    batch events, scheduling counters and exception propagation behave
    exactly as on a [create]d pool, so a batch client runs unchanged —
    its tasks interleave with the scheduler's DAG tasks instead of
    queueing on a second domain set. *)
val of_scheduler : jobs:int -> (n:int -> (int -> unit) -> unit) -> t

(** The parallelism width the pool was created with. *)
val jobs : t -> int

(** [run t ~n f] executes [f 0 .. f (n - 1)], each exactly once, possibly
    concurrently, and returns when all have finished. If any task raises,
    the remaining unstarted iterations are abandoned and the first
    exception (by completion order) is re-raised in the caller with its
    backtrace. Re-entrant: [f] may call [run] on the same pool. *)
val run : t -> n:int -> (int -> unit) -> unit

(** Joins the workers. Further {!run}s raise [Invalid_argument]; idempotent.
    Optional — an exiting process abandons blocked workers safely. *)
val shutdown : t -> unit

(** Attach a telemetry sink: every subsequently dispatched task bumps
    [pool.tasks], [pool.tasks.d<domain>] and [pool.queue_wait_us]
    (µs between batch submit and the task leaving the queue). The same
    dispatch points emit the race detector's synchronization events, so
    scheduling diagnosis and race checking share one instrumentation
    seam. Pass {!Telemetry.null} to detach. *)
val set_telemetry : t -> Telemetry.t -> unit

(** Parallelism width requested by the environment: [RA_JOBS] when set to
    a positive integer, else [Domain.recommended_domain_count ()], clamped
    to [1, 64]. Overridden by {!set_default_jobs}. *)
val default_jobs : unit -> int

(** [set_default_jobs j] makes {!default_jobs} answer [j] (clamped to
    [1, 64]) — for drivers with a [--jobs] flag. Call it before the first
    {!global}, which fixes the shared pool's width. *)
val set_default_jobs : int -> unit

(** The process-wide shared pool, created on first use with
    [jobs = default_jobs ()]. Never shut down. *)
val global : unit -> t
