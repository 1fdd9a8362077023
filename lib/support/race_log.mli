(** Global access/synchronization event log for the instrumented race
    check ([RA_RACE_CHECK] / [--race-check]).

    Hooks in [Bitset]/[Bit_matrix]/[Igraph]/the edge cache record shared
    accesses; {!Pool} (batch submit / task start / task end / batch
    join) and {!Scheduler} (DAG node submit / start / end, graph join)
    record the synchronization edges; {!Ra_check.Race} replays
    the list through a vector-clock happens-before analysis. Disabled —
    the default — the cost at every hook site is the single load of
    {!on}; call sites must guard with [if !Race_log.on then ...] before
    constructing their key so the disabled path allocates nothing. *)

type event =
  | Batch_submit of { batch : int; submitter : int }
  | Task_start of { batch : int; index : int; thread : int }
  | Task_end of { batch : int; index : int; thread : int }
  | Batch_join of { batch : int; submitter : int }
  | Node_submit of
      { node : int; submitter : int; name : string; deps : int list }
    (** a DAG task with its resolved dependency edges (node ids) *)
  | Node_start of { node : int; thread : int }
  | Node_end of { node : int; thread : int }
  | Graph_join of { submitter : int; nodes : int list }
    (** the graph scope drained; [nodes] are every node of the scope *)
  | Access of { thread : int; key : Footprint.key; write : bool }

(** The master switch. Read it directly at hook sites; flip it only via
    {!enable}/{!disable}. *)
val on : bool ref

(** Start a fresh logging scope: drops buffered events, invalidates
    every thread's access-dedup table, sets {!on}. *)
val enable : unit -> unit

(** Clears {!on}; buffered events survive for {!events}. *)
val disable : unit -> unit

(** Drop buffered events and dedup state without toggling {!on}. *)
val clear : unit -> unit

(** The log so far, oldest first. The order is consistent with program
    order and synchronization order, so it can be folded left to right. *)
val events : unit -> event list

(** Record a read/write of [key] by the calling logical thread. Repeat
    accesses within one synchronization segment are deduplicated. *)
val read : Footprint.key -> unit

val write : Footprint.key -> unit

(** Pool-side synchronization events. [batch_submit] allocates the batch
    id; the submitter must be the thread that later calls [batch_join]. *)
val batch_submit : unit -> int

val task_start : batch:int -> index:int -> unit
val task_end : batch:int -> index:int -> unit
val batch_join : batch:int -> unit

(** Scheduler-side DAG synchronization events. [node_submit] allocates
    the node id; [deps] are node ids the task was ordered after (its
    resolved dependency edges — the happens-before edges the analyzer
    merges at [node_start]). [graph_join]'s caller must be the thread
    that drained the graph scope. *)
val node_submit : name:string -> deps:int list -> int

val node_start : node:int -> unit
val node_end : node:int -> unit
val graph_join : nodes:int list -> unit
