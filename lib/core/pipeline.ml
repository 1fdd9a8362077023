open Ra_support
open Ra_ir
open Ra_analysis

type pass_record = {
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

type outcome = {
  proc : Proc.t;
  passes : pass_record list;
  live_ranges : int;
  total_spilled : int;
  total_spill_cost : float;
  moves_removed : int;
}

exception Allocation_failure of string

let fail fmt = Format.kasprintf (fun m -> raise (Allocation_failure m)) fmt

type config = {
  coalesce : bool;
  max_passes : int;
  spill_base : float;
  rematerialize : bool;
  verify : bool;
}

let stages =
  [ Phase.Lint, "structural lint of the input IR (RA_VERIFY)";
    Phase.Build, "interference graphs + spill costs, once per pass";
    Phase.Coalesce, "worklist-driven conservative coalescing (irc only)";
    Phase.Simplify, "simplify / ordering (per class graph)";
    Phase.Color, "optimistic select (per class graph)";
    Phase.Spill_elect, "expand spill decisions into slot-sharing web groups";
    Phase.Spill_insert, "spill-code insertion and temp registration";
    Phase.Rewrite, "rewrite virtual registers onto their colors";
    Phase.Verify, "assignment + output verification (RA_VERIFY)" ]

let regfile_of (machine : Machine.t) : Ra_check.Verify_alloc.regfile =
  { Ra_check.Verify_alloc.k_int = Machine.regs machine Reg.Int_reg;
    k_flt = Machine.regs machine Reg.Flt_reg;
    caller_save_int = Machine.caller_save machine Reg.Int_reg;
    caller_save_flt = Machine.caller_save machine Reg.Flt_reg }

let fail_on_errors ~stage diags =
  if Ra_check.Diagnostic.has_errors diags then
    fail "%s failed:\n%s" stage (Ra_check.Diagnostic.report diags)

let copy_proc (p : Proc.t) : Proc.t =
  { p with Proc.code = Array.copy p.code }

(* Expand a spill decision (node ids of one class graph) into groups of
   member web ids sharing a slot, plus the paper's counters. Group order
   is part of the allocator's observable behavior (slots are assigned in
   group order), so it is fixed by construction: ascending representative
   web id, never the Hashtbl's bucket layout. *)
let spill_groups built cls nodes =
  let alias = built.Build.alias in
  let webs = built.Build.webs in
  let members_of_rep = Hashtbl.create 8 in
  List.iter
    (fun node ->
      let rep = Build.web_of_node built cls node in
      Hashtbl.replace members_of_rep rep [])
    nodes;
  for w = 0 to Webs.n_webs webs - 1 do
    let rep = Union_find.find alias w in
    match Hashtbl.find_opt members_of_rep rep with
    | Some members -> Hashtbl.replace members_of_rep rep (w :: members)
    | None -> ()
  done;
  Hashtbl.fold
    (fun rep members acc -> (rep, List.rev members) :: acc)
    members_of_rep []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Which kind of coalescing this heuristic wants from Build: irc stages
   a move worklist ([Conservative]) for its own in-Simplify conservative
   coalescing; everyone else keeps the aggressive fixpoint pre-pass the
   [coalesce] knob always meant. [~coalesce:false] disables both. *)
let coalesce_mode_of (cfgn : config) (heuristic : Heuristic.t) :
    Build.coalesce_mode =
  match heuristic, cfgn.coalesce with
  | Heuristic.Irc, true -> Build.Conservative
  | (Heuristic.Chaitin | Heuristic.Briggs | Heuristic.Matula), true ->
    Build.Aggressive
  | _, false -> Build.Off

(* ---- the state one allocation threads through its passes ---- *)

type state = {
  cfgn : config;
  machine : Machine.t;
  heuristic : Heuristic.t;
  ctx : Context.t;
  tele : Telemetry.t;
  proc : Proc.t; (* the working copy; spill passes mutate its code *)
  spill_vreg_ids : (int * Reg.cls, unit) Hashtbl.t;
  mutable live_ranges : int;
  mutable total_spilled : int;
  mutable total_spill_cost : float;
  mutable passes_rev : pass_record list;
}

(* ---- the pass modules, in pipeline order ---- *)

module Lint_pass = struct
  let phase = Phase.Lint

  let run st ~stage proc =
    if st.cfgn.verify then
      Telemetry.span st.tele phase
        ~args:(fun () -> [ "stage", stage ])
        (fun () ->
          let cache = Context.analysis_cache st.ctx in
          let h0 = Ra_analysis.Analysis_cache.hits cache in
          let m0 = Ra_analysis.Analysis_cache.misses cache in
          fail_on_errors
            ~stage:(proc.Proc.name ^ ": " ^ stage)
            (Ra_check.Lint.run ~cache proc);
          if Telemetry.enabled st.tele then begin
            let dh = Ra_analysis.Analysis_cache.hits cache - h0 in
            let dm = Ra_analysis.Analysis_cache.misses cache - m0 in
            if dh > 0 then Telemetry.counter st.tele "analysis_cache.hits" dh;
            if dm > 0 then
              Telemetry.counter st.tele "analysis_cache.misses" dm
          end)
end

module Build_pass = struct
  let phase = Phase.Build

  (* Graph construction and spill costs are one phase in the paper's
     accounting, so both record under Build. *)
  let run st ~timer ~edit =
    let cfg, webs, built =
      Telemetry.span st.tele ~timer phase (fun () ->
        Context.build_pass st.ctx st.proc
          ~is_spill_vreg:(fun (r : Reg.t) ->
            Hashtbl.mem st.spill_vreg_ids (r.id, r.cls))
          ~mode:(coalesce_mode_of st.cfgn st.heuristic) ~edit)
    in
    let costs_int, costs_flt =
      Telemetry.span st.tele ~timer phase (fun () ->
        (* the per-web costs are class-independent: compute them once
           and project both class graphs from the same array *)
        let rep_costs = Build.rep_costs ~base:st.cfgn.spill_base built st.proc in
        ( Build.node_costs ~rep_costs built st.proc Reg.Int_reg,
          Build.node_costs ~rep_costs built st.proc Reg.Flt_reg ))
    in
    cfg, webs, built, costs_int, costs_flt
end

module Color_pass = struct
  (* One class graph through the heuristic; Simplify/Color spans and
     times are emitted inside Heuristic.run from the same closed
     phase set. *)

  (* Irc's per-merge hook: union the endpoints' webs and let the
     union-find's rank decision pick the surviving node, so node
     aliasing inside the engine and web aliasing in [built.Build.alias]
     stay one partition. Spill grouping, rewrite and the edge cache all
     resolve webs through that forest, which is exactly what makes a
     conservatively coalesced node's members land on its color. *)
  let on_coalesce built cls a b =
    let wa = Build.web_of_node built cls a in
    let wb = Build.web_of_node built cls b in
    if Union_find.union built.Build.alias wa wb = wa then a else b

  let run st ~timer ?irc ?moves built cls ~costs =
    let k = Machine.regs st.machine cls in
    (* a context without a build pool of its own (batch drivers pin
       jobs:1 per pipeline) may still have a borrowed wide pool for
       the Select engine — its node-count floor keeps small graphs
       sequential, so lending costs nothing *)
    let pool =
      match Context.pool st.ctx with
      | Some _ as p -> p
      | None -> Context.wide_pool st.ctx
    in
    (* [moves]/[irc_stats]/[on_coalesce] are dead weight to the three
       classic heuristics (and the staged arrays are [||] outside a
       Conservative build), so passing them unconditionally is safe.
       [?moves] overrides the build's staged worklist — the spilling
       pass's move-blind retry passes [||]. *)
    let moves =
      match moves with
      | Some m -> m
      | None ->
        (match cls with
         | Reg.Int_reg -> built.Build.moves_int
         | Reg.Flt_reg -> built.Build.moves_flt)
    in
    Heuristic.run ~timer ~tele:st.tele ~buckets:(Context.buckets st.ctx)
      ?pool ~verify:st.cfgn.verify ~moves ?irc_stats:irc
      ~on_coalesce:(on_coalesce built cls) st.heuristic
      (Build.graph_of_class built cls)
      ~k ~costs
end

module Spill_elect = struct
  let phase = Phase.Spill_elect

  (* Expand one class's spill decision into web groups and its cost. *)
  let run st ~timer built cls costs outcome =
    Telemetry.span st.tele ~timer phase (fun () ->
      match outcome with
      | Heuristic.Colored _ -> [], 0.0
      | Heuristic.Spill nodes ->
        let cost =
          List.fold_left (fun acc n -> acc +. costs.(n)) 0.0 nodes
        in
        spill_groups built cls nodes, cost)

  (* When every elected live range is unspillable (infinite cost: spill
     temporaries or no-benefit ranges), another pass would recreate the
     identical conflict: some program point — typically a call site,
     whose arguments must all be register-resident at once in this
     calling convention — demands more registers than the machine has.
     Fail with a diagnosis instead of looping. *)
  let check_spillable st ~pass_index ~k_int ~k_flt ~spill_cost
      (costs_int, out_int) (costs_flt, out_flt) =
    let all_infinite costs = function
      | Heuristic.Spill nodes ->
        List.for_all (fun n -> costs.(n) = infinity) nodes
      | Heuristic.Colored _ -> true
    in
    if spill_cost = infinity
       && all_infinite costs_int out_int
       && all_infinite costs_flt out_flt
    then
      (* Matula reaches this state on routines the cost-aware orders
         allocate fine (euler_main is the tracked case): smallest-last
         ordering never consults spill costs, so it keeps electing the
         infinite-cost spill temporaries earlier passes introduced —
         the degradation §2.3 of the paper warns a cost-blind order
         invites. Name that in the diagnostic instead of implying the
         routine is unallocatable. *)
      let hint =
        match st.heuristic with
        | Heuristic.Matula ->
          " (matula's cost-blind smallest-last order re-elects \
           unspillable spill temporaries; chaitin/briggs, which weigh \
           spill costs, may still allocate this routine)"
        | Heuristic.Chaitin | Heuristic.Briggs | Heuristic.Irc -> ""
      in
      fail
        "%s: only unspillable live ranges remain at pass %d -- some \
         program point (likely a call site) needs more than the %d int / \
         %d flt registers available%s"
        st.proc.Proc.name pass_index k_int k_flt hint
end

module Spill_insert = struct
  let phase = Phase.Spill_insert

  let run st ~timer webs ~groups =
    Telemetry.span st.tele ~timer phase (fun () ->
      let sp =
        Spill.insert ~rematerialize:st.cfgn.rematerialize st.proc webs
          ~spilled:groups
      in
      List.iter
        (fun (r : Reg.t) ->
          Hashtbl.replace st.spill_vreg_ids (r.id, r.cls) ())
        sp.Spill.new_temps;
      sp)

  (* What RA_DEBUG used to eprintf directly is now a structured instant
     event; the ambient sink's stderr subscriber reproduces the dump. *)
  let emit_dump st ~pass_index ~webs ~n_spilled ~spill_cost ~k_int ~k_flt
      ~groups_int ~groups_flt =
    Telemetry.instant st.tele phase ~args:(fun () ->
      let b = Buffer.create 256 in
      Printf.bprintf b
        "[ra] %s pass %d: webs %d, spilled %d (cost %g), int %d/%d flt %d/%d\n"
        st.proc.Proc.name pass_index (Webs.n_webs webs) n_spilled spill_cost
        (List.length groups_int) k_int (List.length groups_flt) k_flt;
      List.iter
        (fun group ->
          List.iter
            (fun w ->
              let web = Webs.web webs w in
              Printf.bprintf b "[ra]   web %d %s defs=[%s] uses=[%s]\n" w
                (Reg.to_string web.Webs.vreg)
                (String.concat ";"
                   (List.map string_of_int web.Webs.def_sites))
                (String.concat ";"
                   (List.map string_of_int web.Webs.use_sites)))
            group)
        (groups_int @ groups_flt);
      [ "proc", st.proc.Proc.name;
        "pass", string_of_int pass_index;
        "spilled", string_of_int n_spilled;
        "dump", Buffer.contents b ])
end

module Rewrite_pass = struct
  let phase = Phase.Rewrite

  let run st ~cfg ~built ~colors_int ~colors_flt =
    let proc = st.proc in
    let machine = st.machine in
    (* Paranoia: the coloring must be proper on both class graphs. *)
    (match Igraph.check_coloring built.Build.int_graph ~colors:colors_int with
     | Some (a, b) -> fail "improper int coloring: nodes %d and %d" a b
     | None -> ());
    (match Igraph.check_coloring built.Build.flt_graph ~colors:colors_flt with
     | Some (a, b) -> fail "improper flt coloring: nodes %d and %d" a b
     | None -> ());
    let webs = built.Build.webs in
    let color_of cls node =
      let colors =
        match cls with Reg.Int_reg -> colors_int | Reg.Flt_reg -> colors_flt
      in
      match colors.(node) with
      | Some c -> c
      | None -> fail "uncolored node survived to rewrite"
    in
    let phys (r : Reg.t) c : Reg.t = { r with Reg.id = c } in
    (* Before rewriting, validate the assignment against a from-scratch
       liveness recomputation: the only stage with both the web structure
       and the pre-rewrite code in hand. *)
    if st.cfgn.verify then
      Telemetry.span st.tele Phase.Verify
        ~args:(fun () -> [ "stage", "assignment check" ])
        (fun () ->
          let color w =
            color_of (Webs.web webs w).Webs.cls (Build.node_of built w)
          in
          fail_on_errors
            ~stage:(proc.Proc.name ^ ": assignment check")
            (Ra_check.Verify_alloc.check_assignment
               ~regfile:(regfile_of machine) proc cfg webs
               ~alias:built.Build.alias ~color));
    Telemetry.span st.tele phase (fun () ->
      (* Rewrite virtual registers to their colors; drop self-copies. *)
      let rewrite_occurrence which i (r : Reg.t) =
        let w = which i r in
        phys r (color_of r.cls (Build.node_of built w))
      in
      let moves_removed = ref 0 in
      let out = ref [] in
      Array.iteri
        (fun i (node : Proc.node) ->
          let ins =
            Instr.map_regs
              ~def:(rewrite_occurrence (Webs.def_web webs) i)
              ~use:(rewrite_occurrence (Webs.use_web webs) i)
              node.ins
          in
          match ins with
          | Instr.Mov (d, s) when Reg.equal d s -> incr moves_removed
          | ins -> out := { node with Proc.ins } :: !out)
        proc.code;
      proc.code <- Array.of_list (List.rev !out);
      (* arguments arrive in the physical registers of their entry webs;
         one table lookup per argument instead of a scan of every web *)
      let entry_web_of_vreg : (int * Reg.cls, int) Hashtbl.t =
        Hashtbl.create 8
      in
      Array.iter
        (fun (w : Webs.web) ->
          if w.has_entry_def then
            Hashtbl.replace entry_web_of_vreg
              (w.vreg.Reg.id, w.vreg.Reg.cls)
              w.w_id)
        (Webs.webs webs);
      let args =
        List.map
          (fun (a : Reg.t) ->
            match Hashtbl.find_opt entry_web_of_vreg (a.id, a.cls) with
            | Some w -> phys a (color_of a.cls (Build.node_of built w))
            | None ->
              (* unused argument: park it above the physical file so binding
                 it at frame setup can never clobber a live register *)
              let k = Machine.regs machine a.cls in
              phys a (k + List.length proc.Proc.args))
          proc.Proc.args
      in
      let proc = { proc with Proc.args } in
      proc.Proc.allocated <- true;
      proc, !moves_removed)
end

module Verify_pass = struct
  let phase = Phase.Verify

  let run st allocated =
    if st.cfgn.verify then begin
      Lint_pass.run st ~stage:"output lint" allocated;
      Telemetry.span st.tele phase
        ~args:(fun () -> [ "stage", "output verification" ])
        (fun () ->
          fail_on_errors
            ~stage:(allocated.Proc.name ^ ": output verification")
            (Ra_check.Verify_alloc.run ~regfile:(regfile_of st.machine)
               allocated))
    end
end

(* ---- the driver ---- *)

let record_pass ?(coalesced = 0) st ~timer ~pass_index ~webs ~built ~k_int
    ~k_flt ~spilled ~spill_cost =
  let r =
    { pass_index;
      webs_initial = Webs.n_webs webs;
      (* classic heuristics merge aggressively in Build
         ([moves_coalesced]); an irc pass can contribute both the
         Briggs-gated merges of its Conservative build fixpoint and the
         worklist drive's merges ([coalesced]) — the sum reads as "this
         pass's merges" either way *)
      webs_coalesced = built.Build.moves_coalesced + coalesced;
      nodes_int = Igraph.n_nodes built.Build.int_graph - k_int;
      nodes_flt = Igraph.n_nodes built.Build.flt_graph - k_flt;
      edges_int = Igraph.n_edges built.Build.int_graph;
      edges_flt = Igraph.n_edges built.Build.flt_graph;
      spilled;
      spill_cost;
      build_rounds = built.Build.rounds;
      cache_hits = built.Build.cache_hits;
      cache_misses = built.Build.cache_misses;
      build_time = Timer.elapsed timer ~phase:Phase.Build;
      coalesce_time = Timer.elapsed timer ~phase:Phase.Coalesce;
      simplify_time = Timer.elapsed timer ~phase:Phase.Simplify;
      color_time = Timer.elapsed timer ~phase:Phase.Color;
      spill_time = Timer.elapsed timer ~phase:Phase.Spill_insert }
  in
  st.passes_rev <- r :: st.passes_rev;
  Telemetry.counter st.tele "alloc.passes" 1;
  Telemetry.counter st.tele "edge_cache.hits" r.cache_hits;
  Telemetry.counter st.tele "edge_cache.misses" r.cache_misses

let rec run_pass st pass_index ~edit =
  if pass_index > st.cfgn.max_passes then
    fail "%s: no convergence after %d passes" st.proc.Proc.name
      st.cfgn.max_passes;
  Telemetry.span st.tele Phase.Pass
    ~args:(fun () ->
      [ "proc", st.proc.Proc.name; "pass", string_of_int pass_index ])
    (fun () ->
      let timer = Timer.create () in
      let cfg, webs, built, costs_int, costs_flt =
        Build_pass.run st ~timer ~edit
      in
      if pass_index = 1 then st.live_ranges <- Webs.n_webs webs;
      let k_int = Machine.regs st.machine Reg.Int_reg in
      let k_flt = Machine.regs st.machine Reg.Flt_reg in
      (* irc: one stats record spans both class graphs of the pass, and a
         snapshot of the web aliasing guards the conservative merges the
         coloring is about to speculate into [built.Build.alias] *)
      let irc =
        match st.heuristic with
        | Heuristic.Irc -> Some (Irc.fresh_stats ())
        | Heuristic.Chaitin | Heuristic.Briggs | Heuristic.Matula -> None
      in
      let alias_snap =
        match irc with
        | Some _ -> Some (Union_find.snapshot built.Build.alias)
        | None -> None
      in
      let out_int = Color_pass.run st ~timer ?irc built Reg.Int_reg ~costs:costs_int in
      let out_flt = Color_pass.run st ~timer ?irc built Reg.Flt_reg ~costs:costs_flt in
      let coalesced =
        match irc with Some s -> s.Irc.combined | None -> 0
      in
      let groups_int, cost_int =
        Spill_elect.run st ~timer built Reg.Int_reg costs_int out_int
      in
      let groups_flt, cost_flt =
        Spill_elect.run st ~timer built Reg.Flt_reg costs_flt out_flt
      in
      (* spill grouping above ran through the coalesced forest on
         purpose: spilling a combined node spills every member web into
         the shared slot, matching the combined cost/degree basis the
         election used. Only *after* that does a spilling pass abandon
         its conservative merges, so the next pass's incremental build
         sees the pristine partition (the edge cache replays
         web-granular pairs through this same forest). *)
      let spilling = function
        | Heuristic.Spill _ -> true
        | Heuristic.Colored _ -> false
      in
      (match alias_snap with
       | Some snap when spilling out_int || spilling out_flt ->
         Union_find.restore built.Build.alias snap
       | Some _ | None -> ());
      (* The conservative tests guarantee merges keep a *simplifiable*
         graph simplifiable; on a pass that spills anyway, the graph
         was not simplifiable and the worklist merges can still degrade
         the optimistic election. Since a spilling pass discards its
         merges regardless, redo the coloring move-blind on the rewound
         forest and keep it unless the coalesced election spilled
         strictly fewer groups. This is a local improvement, not the
         guarantee: the Conservative build's own Briggs-gated merges
         are baked into the graph both elections color, so the elected
         *webs* can still differ from the Off trajectory's, and later
         passes can diverge by a spill. The whole-allocation guarantee
         ("coalescing never costs spills") is [irc_fallback] below. *)
      let out_int, out_flt, groups_int, cost_int, groups_flt, cost_flt,
          coalesced =
        match alias_snap with
        | Some _
          when (spilling out_int || spilling out_flt)
               && Array.length built.Build.moves_int
                  + Array.length built.Build.moves_flt
                  > 0 ->
          let out_int' =
            Color_pass.run st ~timer ?irc ~moves:[||] built Reg.Int_reg
              ~costs:costs_int
          in
          let out_flt' =
            Color_pass.run st ~timer ?irc ~moves:[||] built Reg.Flt_reg
              ~costs:costs_flt
          in
          let groups_int', cost_int' =
            Spill_elect.run st ~timer built Reg.Int_reg costs_int out_int'
          in
          let groups_flt', cost_flt' =
            Spill_elect.run st ~timer built Reg.Flt_reg costs_flt out_flt'
          in
          if List.length groups_int' + List.length groups_flt'
             <= List.length groups_int + List.length groups_flt
          then out_int', out_flt', groups_int', cost_int', groups_flt',
               cost_flt', 0
          else out_int, out_flt, groups_int, cost_int, groups_flt,
               cost_flt, coalesced
        | Some _ | None ->
          out_int, out_flt, groups_int, cost_int, groups_flt, cost_flt,
          coalesced
      in
      let n_spilled = List.length groups_int + List.length groups_flt in
      if n_spilled = 0 then begin
        match out_int, out_flt with
        | Heuristic.Colored colors_int, Heuristic.Colored colors_flt ->
          record_pass ~coalesced st ~timer ~pass_index ~webs ~built ~k_int
            ~k_flt ~spilled:0 ~spill_cost:0.0;
          Rewrite_pass.run st ~cfg ~built ~colors_int ~colors_flt
        | (Heuristic.Colored _ | Heuristic.Spill _), _ -> assert false
      end
      else begin
        let spill_cost = cost_int +. cost_flt in
        Spill_elect.check_spillable st ~pass_index ~k_int ~k_flt ~spill_cost
          (costs_int, out_int) (costs_flt, out_flt);
        st.total_spilled <- st.total_spilled + n_spilled;
        st.total_spill_cost <- st.total_spill_cost +. spill_cost;
        Telemetry.counter st.tele "alloc.spilled" n_spilled;
        Spill_insert.emit_dump st ~pass_index ~webs ~n_spilled ~spill_cost
          ~k_int ~k_flt ~groups_int ~groups_flt;
        let sp =
          Spill_insert.run st ~timer webs ~groups:(groups_int @ groups_flt)
        in
        record_pass ~coalesced st ~timer ~pass_index ~webs ~built ~k_int
          ~k_flt ~spilled:n_spilled ~spill_cost;
        run_pass st (pass_index + 1) ~edit:(Some sp)
      end)

(* One complete allocation of [original] under [cfgn]: fresh pass state,
   fresh working copy, lint → pass loop → verify. [run] and the DAG
   rewrite task both call it a second time for [irc_fallback]. *)
let alloc_once cfgn ~context machine heuristic (original : Proc.t) : outcome
    =
  let st =
    { cfgn;
      machine;
      heuristic;
      ctx = context;
      tele = Context.telemetry context;
      proc = copy_proc original;
      spill_vreg_ids = Hashtbl.create 16;
      live_ranges = 0;
      total_spilled = 0;
      total_spill_cost = 0.0;
      passes_rev = [] }
  in
  Lint_pass.run st ~stage:"input lint" original;
  Context.begin_proc st.ctx;
  let allocated, moves_removed = run_pass st 1 ~edit:None in
  Verify_pass.run st allocated;
  Telemetry.counter st.tele "alloc.moves_removed" moves_removed;
  { proc = allocated;
    passes = List.rev st.passes_rev;
    live_ranges = st.live_ranges;
    total_spilled = st.total_spilled;
    total_spill_cost = st.total_spill_cost;
    moves_removed }

(* The conservative-coalescing guarantee, enforced globally. The
   per-pass move-blind retry cannot deliver it: the Conservative build's
   Briggs-gated merges shift spill *elections* (combined costs and
   degrees pick different webs even at equal counts), and once spill
   code diverges, a later pass of the coalesced run can spill a web the
   no-coalesce run never would. So when an irc allocation that coalesced
   also spilled, allocate once more with coalescing off — irc with an
   Off build degenerates to plain degree-ordered simplify, exactly the
   [~coalesce:false] baseline — and keep the coalesced outcome only if
   it spilled no more webs. Ties prefer the coalesced outcome (it
   removed moves). Spill-free allocations never pay for the rerun. *)
let irc_fallback cfgn ~context machine heuristic (original : Proc.t)
    (first : outcome) : outcome =
  match heuristic with
  | Heuristic.Irc when cfgn.coalesce && first.total_spilled > 0 ->
    let tele = Context.telemetry context in
    Telemetry.counter tele "irc.fallback_runs" 1;
    (match
       alloc_once { cfgn with coalesce = false } ~context machine heuristic
         original
     with
     | off when off.total_spilled < first.total_spilled ->
       Telemetry.counter tele "irc.fallback_kept" 1;
       off
     | _ -> first
     | exception Allocation_failure _ ->
       (* no baseline to compare against: the coalesced outcome stands *)
       first)
  | Heuristic.Irc | Heuristic.Chaitin | Heuristic.Briggs | Heuristic.Matula
    ->
    first

(* ---- the DAG decomposition (RA_SCHED=dag) ----

   The same stage modules, restructured as dependency-carrying tasks on
   a {!Scheduler}: per procedure, ONE shared first-pass Build fans out
   to one pipeline per heuristic, and each pipeline advances as a chain
   of stage tasks (color → spill → build → color → ... → rewrite) that
   submit their successor from inside themselves — the spill-driven
   pass loop needs no upfront unrolling.

   Dependencies are declared, not wired: every stage task of a pipeline
   writes that pipeline's [State] token (so the chain serializes in
   submission order) and reads the procedure's shared-build token (so
   the fan-out waits for the shared build); tasks of different
   procedures and different pipelines share no token and run freely.

   What makes the shared fan-out sound: after the first pass, pipelines
   only *read* the shared structures — coloring reads the class graphs
   into private scratch, spill grouping and rewrite resolve the alias
   forest (pre-compressed below, so [Union_find.find] can at worst
   rewrite a parent link with the value it already holds), and the
   incremental second pass copies ([Liveness.update ~old]) or rebuilds
   ([Webs.rebuild ~old]) rather than patching in place. Everything a
   pipeline mutates — its procedure copy, its context's scratch graphs
   and edge cache — is private to it.

   Outcomes are engineered to be bit-identical to the sequential
   driver's: the stages run in the same relative order within a
   pipeline, on the same structures (the shared build is exactly the
   scratch build every pipeline's pass 1 would have produced — same
   code, same webs, no spill temps yet), so [RA_SCHED=flat] is a pure
   scheduling escape hatch, not a different allocator. *)

type shared_build = {
  sb_cfg : Cfg.t;
  sb_webs : Webs.t;
  sb_built : Build.t;
  sb_costs_int : float array;
  sb_costs_flt : float array;
  sb_build_time : float;
    (* the build's timer seconds; charged to each consuming pipeline's
       pass-1 record — per allocation, "the build this pass used took
       this long", even though the fan-out ran it once *)
}

let build_shared cfgn machine ~tele ?pool ?cache ~mode (proc : Proc.t) =
  (* input lint once: byte-identical input for every pipeline of the
     fan-out, so one verdict serves them all *)
  if cfgn.verify then
    Telemetry.span tele Phase.Lint
      ~args:(fun () -> [ "stage", "input lint" ])
      (fun () ->
        fail_on_errors
          ~stage:(proc.Proc.name ^ ": input lint")
          (Ra_check.Lint.run proc));
  let timer = Timer.create () in
  let cfg, webs, built =
    Telemetry.span tele ~timer Phase.Build (fun () ->
      let cfg = Cfg.build proc.Proc.code in
      let webs = Webs.build proc cfg ~is_spill_vreg:(fun _ -> false) in
      let built =
        Build.build machine proc cfg ~webs ~coalesce_mode:mode ?pool ?cache
          ~verify:cfgn.verify ~tele ()
      in
      cfg, webs, built)
  in
  let costs_int, costs_flt =
    Telemetry.span tele ~timer Phase.Build (fun () ->
      let rep_costs = Build.rep_costs ~base:cfgn.spill_base built proc in
      ( Build.node_costs ~rep_costs built proc Reg.Int_reg,
        Build.node_costs ~rep_costs built proc Reg.Flt_reg ))
  in
  (* Fully compress the alias forest while we are its only owner: the
     concurrent pipelines' [Union_find.find]s (spill grouping, node
     lookup) then follow one-link paths, and the only write any of them
     can issue is storing a parent link's existing value back — benign
     under the OCaml memory model, and invisible to the outcome. *)
  for w = 0 to Union_find.size built.Build.alias - 1 do
    ignore (Union_find.find built.Build.alias w)
  done;
  { sb_cfg = cfg;
    sb_webs = webs;
    sb_built = built;
    sb_costs_int = costs_int;
    sb_costs_flt = costs_flt;
    sb_build_time = Timer.elapsed timer ~phase:Phase.Build }

(* [State] tokens name serialization, not storage: one per shared build
   (read by its fan-out), one per pipeline (written by every stage of
   the chain). Process-unique so unrelated procedures never alias. *)
let next_state_token = Atomic.make 0

type dag_pipe = {
  dp_st : state;
  dp_sched : Scheduler.t;
  dp_fp : Footprint.t; (* reads its shared build, writes its pipeline *)
  dp_label : string; (* "<proc>:<heuristic>" *)
  dp_k_int : int;
  dp_k_flt : int;
  dp_original : Proc.t; (* untouched input, for [irc_fallback]'s rerun *)
  dp_slot : outcome option ref;
}

let dag_submit dp ~stage fn =
  ignore
    (Scheduler.submit dp.dp_sched
       ~name:(stage ^ ":" ^ dp.dp_label)
       ~footprint:dp.dp_fp fn)

(* The stage tasks. Control flow mirrors [run_pass] exactly — same
   stages, same order, same failure points — but each arrow of the
   chain is a task submission instead of a call. *)
let rec dag_color dp pass_index ~timer ~cfg ~webs ~built ~costs_int
    ~costs_flt =
  let st = dp.dp_st in
  if pass_index > st.cfgn.max_passes then
    fail "%s: no convergence after %d passes" st.proc.Proc.name
      st.cfgn.max_passes;
  if pass_index = 1 then st.live_ranges <- Webs.n_webs webs;
  (* mirrors run_pass: per-pass irc stats and the alias-forest snapshot
     guarding the conservative merges (irc pipelines own their build
     privately — see submit_dag — so the mutation is race-free) *)
  let irc =
    match st.heuristic with
    | Heuristic.Irc -> Some (Irc.fresh_stats ())
    | Heuristic.Chaitin | Heuristic.Briggs | Heuristic.Matula -> None
  in
  let alias_snap =
    match irc with
    | Some _ -> Some (Union_find.snapshot built.Build.alias)
    | None -> None
  in
  let out_int = Color_pass.run st ~timer ?irc built Reg.Int_reg ~costs:costs_int in
  let out_flt = Color_pass.run st ~timer ?irc built Reg.Flt_reg ~costs:costs_flt in
  let coalesced = match irc with Some s -> s.Irc.combined | None -> 0 in
  let groups_int, cost_int =
    Spill_elect.run st ~timer built Reg.Int_reg costs_int out_int
  in
  let groups_flt, cost_flt =
    Spill_elect.run st ~timer built Reg.Flt_reg costs_flt out_flt
  in
  (* as in run_pass: group through the coalesced forest (a spilled
     combined node spills all member webs into one slot), rewind the
     speculative merges, then give a spilling pass its move-blind
     retry and keep whichever election spills fewer groups — a local
     improvement; the global guarantee is [irc_fallback] at rewrite *)
  let spilling = function
    | Heuristic.Spill _ -> true
    | Heuristic.Colored _ -> false
  in
  (match alias_snap with
   | Some snap when spilling out_int || spilling out_flt ->
     Union_find.restore built.Build.alias snap
   | Some _ | None -> ());
  let out_int, out_flt, groups_int, cost_int, groups_flt, cost_flt, coalesced =
    match alias_snap with
    | Some _
      when (spilling out_int || spilling out_flt)
           && Array.length built.Build.moves_int
              + Array.length built.Build.moves_flt
              > 0 ->
      let out_int' =
        Color_pass.run st ~timer ?irc ~moves:[||] built Reg.Int_reg
          ~costs:costs_int
      in
      let out_flt' =
        Color_pass.run st ~timer ?irc ~moves:[||] built Reg.Flt_reg
          ~costs:costs_flt
      in
      let groups_int', cost_int' =
        Spill_elect.run st ~timer built Reg.Int_reg costs_int out_int'
      in
      let groups_flt', cost_flt' =
        Spill_elect.run st ~timer built Reg.Flt_reg costs_flt out_flt'
      in
      if List.length groups_int' + List.length groups_flt'
         <= List.length groups_int + List.length groups_flt
      then out_int', out_flt', groups_int', cost_int', groups_flt',
           cost_flt', 0
      else out_int, out_flt, groups_int, cost_int, groups_flt, cost_flt,
           coalesced
    | Some _ | None ->
      out_int, out_flt, groups_int, cost_int, groups_flt, cost_flt, coalesced
  in
  let n_spilled = List.length groups_int + List.length groups_flt in
  if n_spilled = 0 then begin
    match out_int, out_flt with
    | Heuristic.Colored colors_int, Heuristic.Colored colors_flt ->
      dag_submit dp ~stage:"rewrite" (fun () ->
        dag_rewrite dp ~timer ~pass_index ~coalesced ~cfg ~webs ~built
          ~colors_int ~colors_flt)
    | (Heuristic.Colored _ | Heuristic.Spill _), _ -> assert false
  end
  else begin
    let spill_cost = cost_int +. cost_flt in
    Spill_elect.check_spillable st ~pass_index ~k_int:dp.dp_k_int
      ~k_flt:dp.dp_k_flt ~spill_cost (costs_int, out_int)
      (costs_flt, out_flt);
    st.total_spilled <- st.total_spilled + n_spilled;
    st.total_spill_cost <- st.total_spill_cost +. spill_cost;
    Telemetry.counter st.tele "alloc.spilled" n_spilled;
    dag_submit dp ~stage:"spill" (fun () ->
      dag_spill dp pass_index ~timer ~coalesced ~webs ~built ~n_spilled
        ~spill_cost ~groups_int ~groups_flt)
  end

and dag_spill dp pass_index ~timer ~coalesced ~webs ~built ~n_spilled
    ~spill_cost ~groups_int ~groups_flt =
  let st = dp.dp_st in
  Spill_insert.emit_dump st ~pass_index ~webs ~n_spilled ~spill_cost
    ~k_int:dp.dp_k_int ~k_flt:dp.dp_k_flt ~groups_int ~groups_flt;
  let sp = Spill_insert.run st ~timer webs ~groups:(groups_int @ groups_flt) in
  record_pass ~coalesced st ~timer ~pass_index ~webs ~built ~k_int:dp.dp_k_int
    ~k_flt:dp.dp_k_flt ~spilled:n_spilled ~spill_cost;
  dag_submit dp ~stage:"build" (fun () -> dag_build dp (pass_index + 1) ~edit:sp)

and dag_build dp pass_index ~edit =
  let st = dp.dp_st in
  let timer = Timer.create () in
  let cfg, webs, built, costs_int, costs_flt =
    Build_pass.run st ~timer ~edit:(Some edit)
  in
  dag_submit dp ~stage:"color" (fun () ->
    dag_color dp pass_index ~timer ~cfg ~webs ~built ~costs_int ~costs_flt)

and dag_rewrite dp ~timer ~pass_index ~coalesced ~cfg ~webs ~built
    ~colors_int ~colors_flt =
  let st = dp.dp_st in
  record_pass ~coalesced st ~timer ~pass_index ~webs ~built ~k_int:dp.dp_k_int
    ~k_flt:dp.dp_k_flt ~spilled:0 ~spill_cost:0.0;
  let allocated, moves_removed =
    Rewrite_pass.run st ~cfg ~built ~colors_int ~colors_flt
  in
  Verify_pass.run st allocated;
  Telemetry.counter st.tele "alloc.moves_removed" moves_removed;
  let first =
    { proc = allocated;
      passes = List.rev st.passes_rev;
      live_ranges = st.live_ranges;
      total_spilled = st.total_spilled;
      total_spill_cost = st.total_spill_cost;
      moves_removed }
  in
  (* the fallback rerun is ordinary sequential allocation inside this
     task — it touches only the pipeline's private context and its own
     fresh copy of the input, so the fan-out's sharing argument and the
     declared footprint both still hold *)
  dp.dp_slot :=
    Some
      (irc_fallback st.cfgn ~context:st.ctx st.machine st.heuristic
         dp.dp_original first)

let dag_start dp shared =
  let st = dp.dp_st in
  Telemetry.counter st.tele "alloc.procs" 1;
  (* plant the shared build as this context's previous pass, so a spill
     pass patches it incrementally — exactly what a sequential pass 1
     would have left behind *)
  Context.adopt_prev st.ctx ~cfg:shared.sb_cfg ~built:shared.sb_built;
  let timer = Timer.create () in
  Timer.add timer ~phase:Phase.Build shared.sb_build_time;
  dag_color dp 1 ~timer ~cfg:shared.sb_cfg ~webs:shared.sb_webs
    ~built:shared.sb_built ~costs_int:shared.sb_costs_int
    ~costs_flt:shared.sb_costs_flt

let submit_dag sched cfgn machine ~tele ?bpool ?(edge_cache = true)
    ~pipelines (original : Proc.t) =
  (* One aggressive build fans out to every classic pipeline. Irc
     pipelines cannot join the fan-out: they need a Conservative build
     (staged move worklists instead of fixpoint merging), and their
     conservative coalescing unions the build's alias forest mid-color —
     a write into what the sharing argument requires to be read-only. So
     each irc pipeline gets its own build task, private cache included,
     and chains off that token instead of the shared one. *)
  let submit_build ~label ~mode =
    let token = Atomic.fetch_and_add next_state_token 1 in
    let cell = ref None in
    (* only a Conservative build scans more than once, so only it can
       replay anything from a build-private cache *)
    let cache =
      if edge_cache && mode = Build.Conservative then
        Some (Build.Edge_cache.create ())
      else None
    in
    ignore
      (Scheduler.submit sched ~name:("build:" ^ label)
         ~footprint:
           { Footprint.reads = [];
             writes = [ Footprint.State token; Footprint.Telemetry ] }
         (fun () ->
           cell :=
             Some
               (build_shared cfgn machine ~tele ?pool:bpool ?cache ~mode
                  original)));
    token, cell
  in
  let shared =
    if List.exists (fun (h, _) -> h <> Heuristic.Irc) pipelines then
      Some
        (submit_build ~label:original.Proc.name
           ~mode:(if cfgn.coalesce then Build.Aggressive else Build.Off))
    else None
  in
  List.map
    (fun (heuristic, ctx) ->
      let sb_token, cell =
        match heuristic, shared with
        | Heuristic.Irc, _ | _, None ->
          submit_build
            ~label:(original.Proc.name ^ ":" ^ Heuristic.name heuristic)
            ~mode:(coalesce_mode_of cfgn heuristic)
        | _, Some shared -> shared
      in
      let pipe_token = Atomic.fetch_and_add next_state_token 1 in
      let slot = ref None in
      let st =
        { cfgn;
          machine;
          heuristic;
          ctx;
          tele = Context.telemetry ctx;
          proc = copy_proc original;
          spill_vreg_ids = Hashtbl.create 16;
          live_ranges = 0;
          total_spilled = 0;
          total_spill_cost = 0.0;
          passes_rev = [] }
      in
      let dp =
        { dp_st = st;
          dp_sched = sched;
          dp_fp =
            { Footprint.reads = [ Footprint.State sb_token ];
              writes = [ Footprint.State pipe_token; Footprint.Telemetry ] };
          dp_label = original.Proc.name ^ ":" ^ Heuristic.name heuristic;
          dp_k_int = Machine.regs machine Reg.Int_reg;
          dp_k_flt = Machine.regs machine Reg.Flt_reg;
          dp_original = original;
          dp_slot = slot }
      in
      dag_submit dp ~stage:"color" (fun () ->
        match !cell with
        | Some shared -> dag_start dp shared
        | None ->
          (* the State edge guarantees the shared build ran first *)
          assert false);
      slot)
    pipelines

let run cfgn ~context machine heuristic (original : Proc.t) : outcome =
  let tele = Context.telemetry context in
  Telemetry.span tele Phase.Alloc
    ~args:(fun () ->
      [ "proc", original.Proc.name; "heuristic", Heuristic.name heuristic ])
    (fun () ->
      Telemetry.counter tele "alloc.procs" 1;
      let first = alloc_once cfgn ~context machine heuristic original in
      irc_fallback cfgn ~context machine heuristic original first)
