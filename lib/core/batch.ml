open Ra_ir

let default_pool () =
  if Ra_support.Pool.default_jobs () > 1 then Some (Ra_support.Pool.global ())
  else None

let map_procs ?pool ?context ?edge_cache machine ~f (procs : Proc.t list) =
  let pool = match pool with Some p -> p | None -> default_pool () in
  let several = match procs with _ :: _ :: _ -> true | [] | [ _ ] -> false in
  match context, pool with
  | Some ctx, _ ->
    (* an explicit context wins: the caller wants its warm buffers (and
       its stats) across the whole batch, so the batch runs sequentially
       over it — the context's own pool still parallelizes each build *)
    List.map (f ctx) procs
  | None, Some pool when Ra_support.Pool.jobs pool > 1 && several ->
    (* Procedure-level dispatch: each routine is one pool task with a
       context of its own (contexts are single-threaded); the result
       list keeps routine order. The width hint is scheduler-aware
       rather than a hard pin: build-stage block scans stay at
       [jobs:1] — nesting block-sharded builds inside procedure tasks
       would queue [jobs × jobs] tasks on the same pool for no extra
       width — but the pool is lent to each context as [wide_pool], so
       a routine whose interference graph clears the Select engine's
       node-count floor can still go wide inside Select
       (Pool.run is re-entrant: a task that fans out simply has its
       subtasks interleaved on the same domains, never oversubscribing,
       while small routines never touch the lent pool and so never
       starve the procedure-level tasks). Each task's context, graphs
       and cache are its own creations; the shared resources it touches
       are the telemetry sink and the lent pool. *)
    Ra_support.Pool.map_list pool
      ~meta:(fun proc ->
        { Ra_support.Pool.tm_name = "alloc:" ^ proc.Proc.name;
          tm_footprint =
            { Ra_support.Footprint.reads = [];
              writes = [ Ra_support.Footprint.Telemetry ] } })
      (fun proc ->
        f (Context.create ?edge_cache ~jobs:1 ~wide_pool:pool machine) proc)
      procs
  | None, (Some _ | None) ->
    (* zero or one routine (or a width-1 pool): spend the pool on
       block-sharded graph construction inside one context instead *)
    let ctx = Context.create ?edge_cache ?pool machine in
    List.map (f ctx) procs

let allocate_all ?pool ?context ?edge_cache ?verify machine heuristic procs =
  map_procs ?pool ?context ?edge_cache machine procs ~f:(fun ctx proc ->
    Allocator.allocate ?verify ~context:ctx machine heuristic proc)

(* ---- the scheduling mode (RA_SCHED) ---- *)

type sched_mode =
  | Dag (* footprint-ordered stage tasks on the work-stealing scheduler *)
  | Flat (* procedure-per-task batches on the domain pool (the escape hatch) *)

let sched_mode_env () =
  match Sys.getenv_opt "RA_SCHED" with
  | Some "flat" -> Flat
  | None | Some _ -> Dag

(* Set once by drivers with a [--sched] flag; results are bit-identical
   either way, so this only moves work between domains. *)
let sched_override = ref None

let set_sched_mode m = sched_override := Some m

let sched_mode () =
  match !sched_override with Some m -> m | None -> sched_mode_env ()

let verify_default =
  match Sys.getenv_opt "RA_VERIFY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Transpose a per-procedure list of per-heuristic cells into the
   per-heuristic result lists the callers want. *)
let transpose ~n_heuristics rows =
  List.init n_heuristics (fun j -> List.map (fun row -> List.nth row j) rows)

let allocate_matrix ?(coalesce = true) ?(max_passes = 32)
    ?(spill_base = Spill_costs.default_base) ?(rematerialize = true)
    ?(verify = verify_default) ?edge_cache ?sched ?scheduler ?tele machine
    heuristics (procs : Proc.t list) : Allocator.result list list =
  let mode = match sched with Some m -> m | None -> sched_mode () in
  match mode with
  | Flat ->
    (* one batch per heuristic over the flat pool: the pre-DAG shape *)
    List.map
      (fun heuristic ->
        allocate_all ?edge_cache ~verify machine heuristic procs)
      heuristics
  | Dag ->
    let open Ra_support in
    let cfgn =
      { Pipeline.coalesce; max_passes; spill_base; rematerialize; verify }
    in
    let sched =
      match scheduler with Some s -> s | None -> Scheduler.global ()
    in
    let tele =
      match tele with Some t -> t | None -> Telemetry.ambient ()
    in
    if Telemetry.enabled tele then Scheduler.set_telemetry sched tele;
    (* the shared build's block scan shards onto the same scheduler via
       the pool façade, interleaving with the stage tasks *)
    let bpool =
      if Scheduler.jobs sched > 1 then Some (Scheduler.pool sched) else None
    in
    (* Largest routine first: submission order is the ready-queue order
       for independent stage chains, so seeding the DAG with the longest
       routines keeps their (longest) critical paths off the tail of the
       schedule — the classic LPT bound. Result rows are re-sorted back
       to textual order below; only the schedule moves. *)
    let by_size =
      List.stable_sort
        (fun (_, a) (_, b) ->
          compare
            (Array.length b.Proc.code)
            (Array.length a.Proc.code))
        (List.mapi (fun i p -> i, p) procs)
    in
    if Telemetry.enabled tele then begin
      let displaced = ref 0 in
      List.iteri
        (fun rank (orig, _) -> if rank <> orig then incr displaced)
        by_size;
      Telemetry.counter tele "sched.lpt_displaced" !displaced
    end;
    let rows =
      Scheduler.run sched (fun () ->
        List.map
          (fun (orig, proc) ->
            (* Per-pipeline contexts are single-threaded and private:
               their scratch graphs, buckets and edge caches are the
               stage chain's only mutable state besides its proc copy.
               Build scans stay at jobs:1 (procedure-level parallelism
               owns the domains), but the scheduler's pool façade is
               lent as [wide_pool] so large Color stages can select in
               parallel — the engine's floor gates the engagement on
               web count. *)
            let pipelines =
              List.map
                (fun h ->
                  h,
                  Context.create ?edge_cache ~verify ~jobs:1 ?wide_pool:bpool
                    ~tele machine)
                heuristics
            in
            ( orig,
              Pipeline.submit_dag sched cfgn machine ~tele ?bpool ?edge_cache
                ~pipelines proc ))
          by_size)
    in
    let rows =
      List.map snd
        (List.sort (fun (a, _) (b, _) -> compare (a : int) b) rows)
    in
    let rows =
      List.map
        (List.map (fun slot ->
           match !slot with
           | Some (o : Pipeline.outcome) -> o
           | None -> invalid_arg "Batch.allocate_matrix: pipeline never ran"))
        rows
    in
    transpose ~n_heuristics:(List.length heuristics) rows
    |> List.map2
         (fun heuristic col ->
           List.map
             (fun (o : Pipeline.outcome) ->
               { Allocator.proc = o.Pipeline.proc;
                 heuristic;
                 machine;
                 passes = o.Pipeline.passes;
                 live_ranges = o.Pipeline.live_ranges;
                 total_spilled = o.Pipeline.total_spilled;
                 total_spill_cost = o.Pipeline.total_spill_cost;
                 moves_removed = o.Pipeline.moves_removed })
             col)
         heuristics
