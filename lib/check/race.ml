(* Dynamic race detection: a vector-clock happens-before analysis over
   the [Race_log] event list.

   Threads are task executions (and per-domain root contexts), not
   domains: two sibling tasks of one batch are logically concurrent even
   when one worker happened to run them back-to-back, so a conflict is
   reported under *every* schedule, not just the unlucky one.

   Vector clocks exploit the pool's structured fork-join discipline (and
   the DAG's, which adds the dependency edges at a node's start).
   Knowledge only ever flows down a submit (every task starts with the
   submitter's snapshot) and back up the matching join, so:

   - a thread's VC is immutable between its sync points and is shared,
     not copied, into all tasks of a batch; it holds only the thread's
     submitting ancestors — nesting depth entries, not total threads;

   - a joined task's whole lifetime is summarized by one *surrogate*
     edge [task ↦ (submitter, clock-at-join)]: anything that sees the
     submitter past the join transitively saw the task. The
     happens-before test follows surrogate edges only after the direct
     VC lookup fails — a surrogate points *later* than the task's
     events, so consulting it first would falsely order accesses made
     by a still-running ancestor.

   This keeps the analysis near-linear in the event count where naive
   per-thread full vectors would be quadratic in tasks (a full-suite run
   spawns thousands).

   Per location ([Footprint.key]) the detector keeps the last write and
   the reads since, FastTrack-style: a write must be ordered after the
   previous write and all reads since it; a read after the previous
   write. [K_telemetry] is exempt (the sink is mutex-protected). *)

open Ra_support
module IntMap = Map.Make (Int)

let enabled_from_env () =
  match Sys.getenv_opt "RA_RACE_CHECK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

type thread = {
  id : int;
  mutable vc : int IntMap.t; (* ancestor thread -> clock known *)
  mutable clock : int; (* own clock; ticks at submit and join *)
  name : string option; (* None: a root context *)
}

type location = {
  mutable last_write : (int * int) option; (* thread, clock *)
  reads : (int, int) Hashtbl.t; (* thread -> clock, since last write *)
}

type batch = {
  b_submit_vc : int IntMap.t;
  mutable b_threads : int list; (* task threads seen so far *)
}

(* A DAG-scheduler task (Node_* events). Where a batch task inherits
   exactly its submitter's snapshot, a node additionally merges the end
   state of every resolved dependency edge at start — the edges the
   scheduler derived from footprint conflicts ARE the happens-before
   being validated: drop one and the accesses it ordered race. *)
type node = {
  nd_name : string;
  nd_submit_vc : int IntMap.t;
  nd_deps : int list;
  mutable nd_thread : int option; (* executing thread, once started *)
  mutable nd_end : (int IntMap.t * int) option; (* (vc, clock) at end *)
}

type state = {
  threads : (int, thread) Hashtbl.t;
  batches : (int, batch) Hashtbl.t;
  nodes : (int, node) Hashtbl.t;
  surrogate : (int, int * int) Hashtbl.t; (* dead task -> (parent, clock) *)
  locations : (Footprint.key, location) Hashtbl.t;
  raced_keys : (Footprint.key, unit) Hashtbl.t; (* one report per location *)
  mutable diags_rev : Diagnostic.t list;
  mutable n_accesses : int;
  mutable n_sync : int;
  mutable n_races : int;
}

let fresh_state () =
  { threads = Hashtbl.create 256;
    batches = Hashtbl.create 64;
    nodes = Hashtbl.create 256;
    surrogate = Hashtbl.create 256;
    locations = Hashtbl.create 1024;
    raced_keys = Hashtbl.create 16;
    diags_rev = [];
    n_accesses = 0;
    n_sync = 0;
    n_races = 0 }

(* Root threads materialize on first sight: the log only introduces task
   threads explicitly (Task_start). *)
let thread_state st id =
  match Hashtbl.find_opt st.threads id with
  | Some t -> t
  | None ->
    let t = { id; vc = IntMap.empty; clock = 0; name = None } in
    Hashtbl.add st.threads id t;
    t

let thread_name st id =
  match Hashtbl.find_opt st.threads id with
  | Some { name = Some n; _ } -> n
  | Some _ | None -> Printf.sprintf "root#%d" id

(* Did access (t, c) happen before everything thread [u] does from now
   on? Direct VC lookup first; only then the surrogate chain (see the
   header note on why that order is load-bearing). *)
let rec ordered st ~t ~c ~u =
  t = u
  ||
  let us = thread_state st u in
  (match IntMap.find_opt t us.vc with
   | Some known when known >= c -> true
   | Some _ | None ->
     (match Hashtbl.find_opt st.surrogate t with
      | Some (p, pc) -> ordered st ~t:p ~c:pc ~u
      | None -> false))

let location st key =
  match Hashtbl.find_opt st.locations key with
  | Some l -> l
  | None ->
    let l = { last_write = None; reads = Hashtbl.create 4 } in
    Hashtbl.add st.locations key l;
    l

let report_race st key ~prior:(pt, _) ~prior_kind ~now:u ~kind =
  if not (Hashtbl.mem st.raced_keys key) then begin
    Hashtbl.add st.raced_keys key ();
    st.n_races <- st.n_races + 1;
    st.diags_rev <-
      Diagnostic.error ~check:"data-race" ~proc:"<pool>"
        "%s/%s race on %s between %S and %S: no happens-before order"
        prior_kind kind
        (Footprint.key_to_string key)
        (thread_name st pt) (thread_name st u)
      :: st.diags_rev
  end

let check_race st ~thread:u ~key ~write =
  match key with
  | Footprint.K_telemetry -> () (* sink emissions are mutex-ordered *)
  | _ ->
    let us = thread_state st u in
    let loc = location st key in
    (match loc.last_write with
     | Some ((t, c) as prior) when not (ordered st ~t ~c ~u) ->
       report_race st key ~prior ~prior_kind:"write" ~now:u
         ~kind:(if write then "write" else "read")
     | Some _ | None -> ());
    if write then begin
      Hashtbl.iter
        (fun t c ->
          if not (ordered st ~t ~c ~u) then
            report_race st key ~prior:(t, c) ~prior_kind:"read" ~now:u
              ~kind:"write")
        loc.reads;
      loc.last_write <- Some (u, us.clock);
      Hashtbl.reset loc.reads
    end
    else Hashtbl.replace loc.reads u us.clock

let step st (ev : Race_log.event) =
  match ev with
  | Batch_submit { batch; submitter } ->
    st.n_sync <- st.n_sync + 1;
    let s = thread_state st submitter in
    let submit_vc = IntMap.add submitter s.clock s.vc in
    (* accesses the submitter makes between submit and join are *not*
       ordered before the tasks: tick past the snapshot *)
    s.clock <- s.clock + 1;
    Hashtbl.replace st.batches batch
      { b_submit_vc = submit_vc; b_threads = [] }
  | Task_start { batch; index; thread } ->
    st.n_sync <- st.n_sync + 1;
    (match Hashtbl.find_opt st.batches batch with
     | None -> () (* submit fell outside the logging scope: untracked *)
     | Some b ->
       b.b_threads <- thread :: b.b_threads;
       Hashtbl.replace st.threads thread
         { id = thread;
           vc = b.b_submit_vc;
           clock = 0;
           name = Some ("task-" ^ string_of_int index) })
  | Task_end _ -> ()
  | Batch_join { batch; submitter } ->
    st.n_sync <- st.n_sync + 1;
    (match Hashtbl.find_opt st.batches batch with
     | None -> ()
     | Some b ->
       let s = thread_state st submitter in
       (* one surrogate edge per joined task summarizes its lifetime:
          whoever later sees the submitter past this clock transitively
          saw every event of the task *)
       List.iter
         (fun t -> Hashtbl.replace st.surrogate t (submitter, s.clock))
         b.b_threads;
       s.clock <- s.clock + 1)
  | Node_submit { node; submitter; name; deps } ->
    st.n_sync <- st.n_sync + 1;
    let s = thread_state st submitter in
    let submit_vc = IntMap.add submitter s.clock s.vc in
    (* as with batches: the submitter's later accesses are not ordered
       before the node *)
    s.clock <- s.clock + 1;
    Hashtbl.replace st.nodes node
      { nd_name = name;
        nd_submit_vc = submit_vc;
        nd_deps = deps;
        nd_thread = None;
        nd_end = None }
  | Node_start { node; thread } ->
    st.n_sync <- st.n_sync + 1;
    (match Hashtbl.find_opt st.nodes node with
     | None -> () (* submit fell outside the logging scope: untracked *)
     | Some nd ->
       (* start knowledge = submitter's snapshot ⊔ every dependency's
          end state. A dependency that never ran (skipped after a
          failure, or submitted outside the scope) contributes nothing;
          by log order a dependency that did run has ended by now. *)
       let vc =
         List.fold_left
           (fun vc dep ->
             match Hashtbl.find_opt st.nodes dep with
             | Some { nd_thread = Some dt; nd_end = Some (dvc, dc); _ } ->
               let vc =
                 IntMap.union (fun _ a b -> Some (max a b)) vc dvc
               in
               IntMap.update dt
                 (function
                   | Some c -> Some (max c dc)
                   | None -> Some dc)
                 vc
             | Some _ | None -> vc)
           nd.nd_submit_vc nd.nd_deps
       in
       nd.nd_thread <- Some thread;
       Hashtbl.replace st.threads thread
         { id = thread;
           vc;
           clock = 0;
           name = Some nd.nd_name })
  | Node_end { node; thread } ->
    (match Hashtbl.find_opt st.nodes node with
     | None -> ()
     | Some nd ->
       let t = thread_state st thread in
       nd.nd_end <- Some (t.vc, t.clock))
  | Graph_join { submitter; nodes } ->
    st.n_sync <- st.n_sync + 1;
    let s = thread_state st submitter in
    (* as at a batch join: one surrogate edge per drained node *)
    List.iter
      (fun n ->
        match Hashtbl.find_opt st.nodes n with
        | Some { nd_thread = Some t; _ } ->
          Hashtbl.replace st.surrogate t (submitter, s.clock)
        | Some _ | None -> ())
      nodes;
    s.clock <- s.clock + 1
  | Access { thread; key; write } ->
    st.n_accesses <- st.n_accesses + 1;
    check_race st ~thread ~key ~write

let analyze ?(tele = Telemetry.null) events =
  let st = fresh_state () in
  List.iter (step st) events;
  if Telemetry.enabled tele then begin
    Telemetry.counter tele "race.accesses" st.n_accesses;
    Telemetry.counter tele "race.sync" st.n_sync;
    Telemetry.counter tele "race.threads" (Hashtbl.length st.threads);
    Telemetry.counter tele "race.races" st.n_races
  end;
  List.rev st.diags_rev

let check ?tele () = analyze ?tele (Race_log.events ())

let with_check ?tele f =
  Race_log.enable ();
  let result =
    match f () with
    | r -> r
    | exception e ->
      Race_log.disable ();
      Race_log.clear ();
      raise e
  in
  Race_log.disable ();
  let diags = check ?tele () in
  Race_log.clear ();
  result, diags
