(** Dynamic race detection for the allocator's parallel runs
    ([RA_RACE_CHECK] / [--race-check]).

    Replays the {!Ra_support.Race_log} event list through a vector-clock
    happens-before analysis (task executions are the logical threads;
    pool batch submit/join events and the DAG scheduler's node and
    dependency events are the synchronization edges) and reports
    [data-race]: two accesses to one shared location, at least one a
    write, with no happens-before order — under *any* schedule, since
    logically concurrent tasks race even when one worker ran them
    back-to-back. *)

(** [RA_RACE_CHECK] is set to something other than [""]/["0"]. *)
val enabled_from_env : unit -> bool

(** Analyze an event list. When [tele] is an enabled sink, emits the
    [race.accesses], [race.sync], [race.threads] and [race.races]
    counters. *)
val analyze :
  ?tele:Ra_support.Telemetry.t -> Ra_support.Race_log.event list ->
  Diagnostic.t list

(** [check ()] = [analyze (Race_log.events ())]. *)
val check : ?tele:Ra_support.Telemetry.t -> unit -> Diagnostic.t list

(** [with_check f] runs [f] with logging enabled, then analyzes and
    clears the log: the scoped form the tests use. Logging is switched
    off (and the log dropped) even when [f] raises. *)
val with_check :
  ?tele:Ra_support.Telemetry.t -> (unit -> 'a) -> 'a * Diagnostic.t list
