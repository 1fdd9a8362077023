(** A work-stealing task-DAG scheduler with footprint-derived edges.

    Where {!Pool} runs flat indexed batches, the scheduler runs a
    dependency graph: each task declares a {!Footprint.t}, and
    {!submit} derives the task's dependency edges by testing that
    footprint against every earlier task of the open {!run} scope
    ([Footprint.conflicts] — either side writes something the other
    touches). Submission order directs every edge, so conflicting tasks
    execute in the order they were submitted (the sequential order)
    while disjoint tasks run concurrently with no barrier between them.

    Execution is work-stealing over per-domain deques: a domain pushes
    and pops its own deque LIFO (dependent stage chains stay on one
    domain, buffers hot), and steals the oldest task of the fullest
    victim when its own deque is empty. Tasks may {!submit} successors
    from inside themselves — data-dependent graphs (the allocator's
    spill-driven pass loop) need no upfront unrolling.

    With [Race_log.on], every task is logged as a DAG node with its
    resolved edges and {!Ra_check.Race} replays them as happens-before,
    validating that the derived graph orders every observed shared
    access. *)

type t

(** A handle on a submitted task, used as an explicit [after]
    dependency for ordering that footprints don't capture. *)
type task

(** Scheduling counters since creation (or the last {!reset_stats}).
    [busy_s.(i)] is the wall time slot [i] spent inside task bodies —
    slot 0 is the submitting caller, slots [1..] the worker domains;
    [max_queue_depth] is the high-water mark of ready DAG tasks
    queued across all deques. *)
type stats = {
  tasks : int;
  steals : int;
  edges : int;
  max_queue_depth : int;
  busy_s : float array;
}

(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1]).
    With [jobs = 1] every task runs in the caller at the join. *)
val create : jobs:int -> t

(** The parallelism width the scheduler was created with. *)
val jobs : t -> int

(** [run t f] opens a graph scope, calls [f ()] (which submits tasks,
    and whose tasks may submit more), then drains the whole graph —
    the caller executing tasks alongside the workers — and returns
    [f]'s result. If [f] or any task raises, the remaining tasks of
    the scope are skipped (the graph still drains) and the first
    exception is re-raised with its backtrace. One scope at a time. *)
val run : t -> (unit -> 'a) -> 'a

(** [submit t ~name ~footprint fn] adds a task to the open scope.
    Dependency edges: every earlier task of the scope whose footprint
    {!Footprint.conflicts} with [footprint], plus the explicit [after]
    tasks. [name] labels the task in traces and race diagnostics.
    Must be called inside {!run} — from [f] or from a running task. *)
val submit :
  t -> ?after:task list -> name:string -> footprint:Footprint.t ->
  (unit -> unit) -> task

(** [batch_run t ~n f] executes the flat batch [f 0 .. f (n-1)] on the
    scheduler's domains, the caller helping first (the {!Pool} drain-
    your-own-batch discipline, so nested submission cannot deadlock).
    Usable inside or outside a {!run} scope; first exception re-raised. *)
val batch_run : t -> n:int -> (int -> unit) -> unit

(** A {!Pool} façade over this scheduler ({!Pool.of_scheduler}): batch
    clients run on the scheduler's domains, interleaved with its DAG
    tasks. *)
val pool : t -> Pool.t

(** Attach a telemetry sink: submissions bump [sched.tasks] and
    [sched.edges], executions emit a [Phase.Task] span (arg [name]) and
    bump [sched.tasks.d<domain>], steals bump [sched.steals]. Pass
    {!Telemetry.null} to detach. *)
val set_telemetry : t -> Telemetry.t -> unit

val stats : t -> stats
val reset_stats : t -> unit

(** Joins the workers. Further use raises [Invalid_argument]. *)
val shutdown : t -> unit

(** The process-wide shared scheduler, created on first use with
    [jobs = Pool.default_jobs ()]. Never shut down. *)
val global : unit -> t
