open Ra_ir

let default_pool () =
  if Ra_support.Pool.default_jobs () > 1 then Some (Ra_support.Pool.global ())
  else None

let allocate_all ?context ?edge_cache ?verify machine heuristic procs =
  let ctx =
    match context with
    | Some c -> c
    | None -> Context.create ?edge_cache machine
  in
  List.map (Allocator.allocate ?verify ~context:ctx machine heuristic) procs

(* Transpose a per-procedure list of per-heuristic cells into the
   per-heuristic result lists the callers want. *)
let transpose ~n_heuristics rows =
  List.init n_heuristics (fun j -> List.map (fun row -> List.nth row j) rows)

let allocate_matrix ?(coalesce = true) ?(max_passes = 32)
    ?(spill_base = Spill_costs.default_base) ?(rematerialize = true)
    ?(verify = Context.verify_default) ?edge_cache ?scheduler ?tele machine
    heuristics (procs : Proc.t list) : Allocator.result list list =
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
             stage chain's only mutable state besides its proc copy. *)
          let pipelines =
            List.map
              (fun h -> h, Context.create ?edge_cache ~verify ~tele machine)
              heuristics
          in
          (orig, Pipeline.submit_dag sched cfgn machine ~tele ~pipelines proc))
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
