(* The convenience wrapper over the explicit pass pipeline: resolves
   defaults (environment flags, a private context when none is given)
   and re-exports the pipeline's typed results under the historical
   names. The pass chain itself lives in {!Pipeline}. *)

type pass_record = Pipeline.pass_record = {
  pass_index : int;
  webs_initial : int;
  webs_coalesced : int;
  nodes_int : int;
  nodes_flt : int;
  edges_int : int;
  edges_flt : int;
  spilled : int;
  spill_cost : float;
  build_rounds : int;
  cache_hits : int;
  cache_misses : int;
  build_time : float;
  coalesce_time : float;
  simplify_time : float;
  color_time : float;
  spill_time : float;
}

type result = {
  proc : Ra_ir.Proc.t;
  heuristic : Heuristic.t;
  machine : Machine.t;
  passes : pass_record list;
  live_ranges : int;
  total_spilled : int;
  total_spill_cost : float;
  moves_removed : int;
}

exception Allocation_failure = Pipeline.Allocation_failure

let allocate ?(coalesce = true) ?(max_passes = 32)
    ?(spill_base = Spill_costs.default_base) ?(rematerialize = true)
    ?(verify = Context.verify_default) ?context machine heuristic
    (original : Ra_ir.Proc.t) : result =
  let context =
    match context with
    | Some c -> c
    | None -> Context.create ~verify machine
  in
  let cfgn =
    { Pipeline.coalesce; max_passes; spill_base; rematerialize; verify }
  in
  let o = Pipeline.run cfgn ~context machine heuristic original in
  { proc = o.Pipeline.proc;
    heuristic;
    machine;
    passes = o.Pipeline.passes;
    live_ranges = o.Pipeline.live_ranges;
    total_spilled = o.Pipeline.total_spilled;
    total_spill_cost = o.Pipeline.total_spill_cost;
    moves_removed = o.Pipeline.moves_removed }

let summary r = r.total_spilled, r.total_spill_cost
