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

(* How the pass chain takes each of its arrows: run the next stage now,
   or hand it to a scheduler. [stage] names the stage for task labels. *)
type step = stage:string -> (unit -> unit) -> unit

(* Where irc's no-coalesce fallback meets the coalesced chain it runs
   beside. Each side stores its outcome, then counts itself off
   [pending]; the side that counts it to zero decides. [bound] is the
   coalesced outcome's [total_spilled] once the chain has finished
   ([max_int] before): the rerun's cutoff. *)
type join = {
  pending : int Atomic.t;
  bound : int Atomic.t;
  mutable coalesced : outcome option;
  mutable rerun : outcome option; (* [None]: failed or abandoned *)
}

type state = {
  cfgn : config;
  machine : Machine.t;
  heuristic : Heuristic.t;
  ctx : Context.t;
  tele : Telemetry.t;
  original : Proc.t; (* the untouched input, for the fallback's rerun *)
  proc : Proc.t; (* the working copy; spill passes mutate its code *)
  step : step;
  fork : (Context.t -> unit) -> unit;
    (* starts the fallback on a context of the driver's choosing *)
  cutoff : int Atomic.t;
    (* a rerun abandons at the first election whose running
       [total_spilled] reaches this; [max_int] outside a rerun *)
  deliver : outcome -> unit; (* receives the chain's final outcome *)
  spill_vreg_ids : (int * Reg.cls, unit) Hashtbl.t;
  mutable join : join option; (* set once pass 1 forks the fallback *)
  mutable live_ranges : int;
  mutable total_spilled : int;
  mutable total_spill_cost : float;
  mutable passes_rev : pass_record list;
}

(* Raised out of a rerun's election once it can no longer win. *)
exception Abandoned

let no_cutoff = Atomic.make max_int

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

(* What one pass's Build hands to its coloring. *)
type built_pass = {
  cfg : Cfg.t;
  webs : Webs.t;
  built : Build.t;
  costs_int : float array;
  costs_flt : float array;
}

module Build_pass = struct
  let phase = Phase.Build

  (* Spill costs belong to Build in the paper's accounting. The per-web
     costs are class-independent: compute them once and project both
     class graphs from the same array. *)
  let with_costs cfgn tele ~timer ~cfg ~webs built proc =
    Telemetry.span tele ~timer phase (fun () ->
      let rep_costs = Build.rep_costs ~base:cfgn.spill_base built proc in
      { cfg;
        webs;
        built;
        costs_int = Build.node_costs ~rep_costs built proc Reg.Int_reg;
        costs_flt = Build.node_costs ~rep_costs built proc Reg.Flt_reg })

  let run st ~timer ~edit =
    let cfg, webs, built =
      Telemetry.span st.tele ~timer phase (fun () ->
        Context.build_pass st.ctx st.proc
          ~is_spill_vreg:(fun (r : Reg.t) ->
            Hashtbl.mem st.spill_vreg_ids (r.id, r.cls))
          ~mode:(coalesce_mode_of st.cfgn st.heuristic) ~edit)
    in
    with_costs st.cfgn st.tele ~timer ~cfg ~webs built st.proc
end

module Color_pass = struct
  (* One class graph through the heuristic; Simplify/Color spans and
     times are emitted inside Heuristic.run from the same closed
     phase set. *)

  (* Irc's per-merge hook: union the endpoints' webs and let the
     union-find's rank decision pick the surviving node, so node
     aliasing inside the engine and web aliasing in [built.Build.alias]
     stay one partition. Spill grouping and rewrite both resolve webs
     through that forest, which is exactly what makes a
     conservatively coalesced node's members land on its color. *)
  let on_coalesce built cls a b =
    let wa = Build.web_of_node built cls a in
    let wb = Build.web_of_node built cls b in
    if Union_find.union built.Build.alias wa wb = wa then a else b

  let run st ~timer ?irc ?moves built cls ~costs =
    let k = Machine.regs st.machine cls in
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
      ~moves ?irc_stats:irc
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

(* ---- the pass chain ----

   Figure 4's loop, written once:

     color → rewrite → finish
       ↓
     spill → build → color → ...

   Every arrow is taken through the state's [step]. The sequential
   driver ({!run}) calls the next stage inline; the DAG driver
   ({!submit_dag}) submits it as a scheduler task. Both drivers run the
   same stages, in the same order, on the same structures. *)

let record_pass ?(coalesced = 0) st ~timer ~pass_index (b : built_pass)
    ~spilled ~spill_cost =
  let built = b.built in
  let r =
    { pass_index;
      webs_initial = Webs.n_webs b.webs;
      (* classic heuristics merge aggressively in Build
         ([moves_coalesced]); an irc pass can contribute both the
         Briggs-gated merges of its Conservative build fixpoint and the
         worklist drive's merges ([coalesced]) — the sum reads as "this
         pass's merges" either way *)
      webs_coalesced = built.Build.moves_coalesced + coalesced;
      nodes_int =
        Igraph.n_nodes built.Build.int_graph
        - Machine.regs st.machine Reg.Int_reg;
      nodes_flt =
        Igraph.n_nodes built.Build.flt_graph
        - Machine.regs st.machine Reg.Flt_reg;
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

(* Both class graphs colored, and their spill decisions expanded. *)
type election = {
  out_int : Heuristic.outcome;
  out_flt : Heuristic.outcome;
  groups_int : int list list;
  groups_flt : int list list;
  cost_int : float;
  cost_flt : float;
}

let elect st ~timer ?irc ?moves (b : built_pass) =
  let out_int =
    Color_pass.run st ~timer ?irc ?moves b.built Reg.Int_reg
      ~costs:b.costs_int
  in
  let out_flt =
    Color_pass.run st ~timer ?irc ?moves b.built Reg.Flt_reg
      ~costs:b.costs_flt
  in
  let groups_int, cost_int =
    Spill_elect.run st ~timer b.built Reg.Int_reg b.costs_int out_int
  in
  let groups_flt, cost_flt =
    Spill_elect.run st ~timer b.built Reg.Flt_reg b.costs_flt out_flt
  in
  { out_int; out_flt; groups_int; groups_flt; cost_int; cost_flt }

let n_groups e = List.length e.groups_int + List.length e.groups_flt

let spilling = function
  | Heuristic.Spill _ -> true
  | Heuristic.Colored _ -> false

let new_state cfgn ~context machine heuristic (original : Proc.t) ~step
    ~fork ~cutoff ~deliver =
  { cfgn;
    machine;
    heuristic;
    ctx = context;
    tele = Context.telemetry context;
    original;
    proc = copy_proc original;
    step;
    fork;
    cutoff;
    deliver;
    spill_vreg_ids = Hashtbl.create 16;
    join = None;
    live_ranges = 0;
    total_spilled = 0;
    total_spill_cost = 0.0;
    passes_rev = [] }

(* The sequential driver: one complete allocation of [original] under
   [cfgn] — fresh state, lint, then the chain with every arrow taken
   inline. A fallback the chain forks runs after it, on the same
   context, so it starts with the coalesced total as its cutoff. *)
let rec alloc ?(cutoff = no_cutoff) cfgn ~context machine heuristic
    (original : Proc.t) : outcome =
  let result = ref None in
  let fallback = ref None in
  let st =
    new_state cfgn ~context machine heuristic original
      ~step:(fun ~stage:_ f -> f ())
      ~fork:(fun f -> fallback := Some f)
      ~cutoff
      ~deliver:(fun o -> result := Some o)
  in
  Lint_pass.run st ~stage:"input lint" original;
  Context.begin_proc st.ctx;
  build st 1 ~edit:None;
  Option.iter (fun f -> f context) !fallback;
  match !result with Some o -> o | None -> assert false

(* Inline, the Pass span encloses the rest of the allocation, later
   passes nested inside it; on the scheduler it closes with the build
   task. *)
and build st pass_index ~edit =
  Telemetry.span st.tele Phase.Pass
    ~args:(fun () ->
      [ "proc", st.proc.Proc.name; "pass", string_of_int pass_index ])
    (fun () ->
      let timer = Timer.create () in
      let b = Build_pass.run st ~timer ~edit in
      st.step ~stage:"color" (fun () -> color st pass_index ~timer b))

and color st pass_index ~timer (b : built_pass) =
  if pass_index > st.cfgn.max_passes then
    fail "%s: no convergence after %d passes" st.proc.Proc.name
      st.cfgn.max_passes;
  if pass_index = 1 then st.live_ranges <- Webs.n_webs b.webs;
  (* irc: one stats record spans both class graphs of the pass, and a
     snapshot of the web aliasing guards the conservative merges the
     coloring is about to speculate into [b.built.Build.alias] *)
  let irc =
    match st.heuristic with
    | Heuristic.Irc -> Some (Irc.fresh_stats ())
    | Heuristic.Chaitin | Heuristic.Briggs | Heuristic.Matula -> None
  in
  let alias_snap =
    Option.map (fun _ -> Union_find.snapshot b.built.Build.alias) irc
  in
  let e = elect st ~timer ?irc b in
  let coalesced = match irc with Some s -> s.Irc.combined | None -> 0 in
  (* Spill grouping above ran through the coalesced forest on purpose:
     spilling a combined node spills every member web into the shared
     slot, matching the combined cost/degree basis the election used.
     Only *after* that does a spilling pass abandon its conservative
     merges, so the next pass's incremental build sees the pristine
     partition.

     The conservative tests guarantee merges keep a *simplifiable* graph
     simplifiable; on a pass that spills anyway, the graph was not
     simplifiable and the worklist merges can still degrade the
     optimistic election. Since a spilling pass discards its merges
     regardless, redo the coloring move-blind on the rewound forest and
     keep it unless the coalesced election spilled strictly fewer
     groups. This is a local improvement, not the guarantee: the
     Conservative build's own Briggs-gated merges are baked into the
     graph both elections color, so the elected *webs* can still differ
     from the Off trajectory's, and later passes can diverge by a spill.
     The whole-allocation guarantee ("coalescing never costs spills") is
     the fallback [rerun] forked below. *)
  let e, coalesced =
    match alias_snap with
    | Some snap when spilling e.out_int || spilling e.out_flt ->
      Union_find.restore b.built.Build.alias snap;
      if Array.length b.built.Build.moves_int
         + Array.length b.built.Build.moves_flt
         > 0
      then begin
        let blind = elect st ~timer ?irc ~moves:[||] b in
        if n_groups blind <= n_groups e then blind, 0 else e, coalesced
      end
      else e, coalesced
    | Some _ | None -> e, coalesced
  in
  let n_spilled = n_groups e in
  if n_spilled = 0 then begin
    match e.out_int, e.out_flt with
    | Heuristic.Colored colors_int, Heuristic.Colored colors_flt ->
      st.step ~stage:"rewrite" (fun () ->
        record_pass ~coalesced st ~timer ~pass_index b ~spilled:0
          ~spill_cost:0.0;
        finish st
          (Rewrite_pass.run st ~cfg:b.cfg ~built:b.built ~colors_int
             ~colors_flt))
    | (Heuristic.Colored _ | Heuristic.Spill _), _ -> assert false
  end
  else begin
    let k_int = Machine.regs st.machine Reg.Int_reg in
    let k_flt = Machine.regs st.machine Reg.Flt_reg in
    let spill_cost = e.cost_int +. e.cost_flt in
    (* [total_spilled] never falls from pass to pass, and a rerun wins
       only with strictly fewer spills: once it reaches the bound it
       cannot win, so stop before spending the rest of its passes *)
    if st.total_spilled + n_spilled >= Atomic.get st.cutoff then
      raise Abandoned;
    Spill_elect.check_spillable st ~pass_index ~k_int ~k_flt ~spill_cost
      (b.costs_int, e.out_int) (b.costs_flt, e.out_flt);
    (* an allocation spills iff its pass 1 does: that is when an irc
       allocation with coalescing on needs its fallback *)
    if pass_index = 1 && st.heuristic = Heuristic.Irc && st.cfgn.coalesce
    then begin
      let j =
        { pending = Atomic.make 2;
          bound = Atomic.make max_int;
          coalesced = None;
          rerun = None }
      in
      st.join <- Some j;
      st.fork (rerun st j)
    end;
    st.total_spilled <- st.total_spilled + n_spilled;
    st.total_spill_cost <- st.total_spill_cost +. spill_cost;
    Telemetry.counter st.tele "alloc.spilled" n_spilled;
    st.step ~stage:"spill" (fun () ->
      Spill_insert.emit_dump st ~pass_index ~webs:b.webs ~n_spilled
        ~spill_cost ~k_int ~k_flt ~groups_int:e.groups_int
        ~groups_flt:e.groups_flt;
      let sp =
        Spill_insert.run st ~timer b.webs
          ~groups:(e.groups_int @ e.groups_flt)
      in
      record_pass ~coalesced st ~timer ~pass_index b ~spilled:n_spilled
        ~spill_cost;
      st.step ~stage:"build" (fun () ->
        build st (pass_index + 1) ~edit:(Some sp)))
  end

(* Verify the rewritten procedure, assemble the outcome and hand it on:
   straight to [deliver], or, when pass 1 forked the fallback, to the
   join, after publishing the rerun's cutoff. *)
and finish st (allocated, moves_removed) =
  Verify_pass.run st allocated;
  Telemetry.counter st.tele "alloc.moves_removed" moves_removed;
  let o =
    { proc = allocated;
      passes = List.rev st.passes_rev;
      live_ranges = st.live_ranges;
      total_spilled = st.total_spilled;
      total_spill_cost = st.total_spill_cost;
      moves_removed }
  in
  match st.join with
  | None -> st.deliver o
  | Some j ->
    j.coalesced <- Some o;
    Atomic.set j.bound o.total_spilled;
    arrive st j

(* The conservative-coalescing guarantee, enforced globally. The
   per-pass move-blind retry cannot deliver it: the Conservative build's
   Briggs-gated merges shift spill *elections* (combined costs and
   degrees pick different webs even at equal counts), and once spill
   code diverges, a later pass of the coalesced run can spill a web the
   no-coalesce run never would. So an irc allocation with coalescing on
   whose pass 1 spilled is allocated once more with coalescing off — irc
   with an Off build degenerates to plain degree-ordered simplify,
   exactly the [~coalesce:false] baseline — under the coalesced chain's
   [st], on [ctx]. The rerun stops at the first election that reaches
   the join's bound. *)
and rerun st j ctx =
  Telemetry.counter st.tele "irc.fallback_runs" 1;
  j.rerun <-
    (match
       alloc ~cutoff:j.bound { st.cfgn with coalesce = false } ~context:ctx
         st.machine st.heuristic st.original
     with
     | off -> Some off
     | exception (Abandoned | Allocation_failure _) -> None);
  arrive st j

(* The side that arrives second decides: the rerun is kept only if it
   spilled strictly fewer webs. Ties keep the coalesced outcome (it
   removed moves); a rerun that failed or was abandoned has no outcome
   to compare, so the coalesced one stands. *)
and arrive st j =
  if Atomic.fetch_and_add j.pending (-1) = 1 then
    match j.coalesced, j.rerun with
    | Some first, Some off when off.total_spilled < first.total_spilled ->
      Telemetry.counter st.tele "irc.fallback_kept" 1;
      st.deliver off
    | Some first, _ -> st.deliver first
    | None, _ -> assert false

let run cfgn ~context machine heuristic (original : Proc.t) : outcome =
  let tele = Context.telemetry context in
  Telemetry.span tele Phase.Alloc
    ~args:(fun () ->
      [ "proc", original.Proc.name; "heuristic", Heuristic.name heuristic ])
    (fun () ->
      Telemetry.counter tele "alloc.procs" 1;
      alloc cfgn ~context machine heuristic original)

(* ---- the DAG driver ----

   The same chain, with every arrow a task on a {!Scheduler}: per
   procedure, ONE shared first-pass Build fans out to one pipeline per
   heuristic, and each pipeline enters the chain at [color]. Each stage
   submits its successor from inside itself, so the spill-driven pass
   loop needs no upfront unrolling.

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

   Outcomes equal the sequential driver's: the shared build is exactly
   the scratch build every pipeline's pass 1 would have produced (same
   code, same webs, no spill temps yet), and from there both drivers
   run the one chain. *)

(* The shared first-pass Build and its timer seconds. The seconds are
   charged to each consuming pipeline's pass-1 record — per allocation,
   "the build this pass used took this long", even though the fan-out
   ran it once. The build is context-free on purpose: the fan-out must
   not share any pipeline's scratch graphs. *)
let build_shared cfgn machine ~tele ~mode (proc : Proc.t) =
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
        Build.build machine proc cfg ~webs ~coalesce_mode:mode
          ~verify:cfgn.verify ~tele ()
      in
      cfg, webs, built)
  in
  let b = Build_pass.with_costs cfgn tele ~timer ~cfg ~webs built proc in
  (* Fully compress the alias forest while we are its only owner: the
     concurrent pipelines' [Union_find.find]s (spill grouping, node
     lookup) then follow one-link paths, and the only write any of them
     can issue is storing a parent link's existing value back — benign
     under the OCaml memory model, and invisible to the outcome. *)
  for w = 0 to Union_find.size built.Build.alias - 1 do
    ignore (Union_find.find built.Build.alias w)
  done;
  b, Timer.elapsed timer ~phase:Phase.Build

(* [State] tokens name serialization, not storage: one per shared build
   (read by its fan-out), one per pipeline (written by every stage of
   the chain). Process-unique so unrelated procedures never alias. *)
let next_state_token = Atomic.make 0

(* A pipeline's [step]: submit the stage under the pipeline's
   footprint. *)
let dag_submit sched ~label ~footprint : step =
 fun ~stage fn ->
  ignore (Scheduler.submit sched ~name:(stage ^ ":" ^ label) ~footprint fn)

let submit_dag sched cfgn machine ~tele ~pipelines (original : Proc.t) =
  (* One aggressive build fans out to every classic pipeline. Irc
     pipelines cannot join the fan-out: they need a Conservative build
     (staged move worklists instead of fixpoint merging), and their
     conservative coalescing unions the build's alias forest mid-color —
     a write into what the sharing argument requires to be read-only. So
     each irc pipeline gets its own build task and chains off that token
     instead of the shared one. *)
  let submit_build ~label ~mode =
    let token = Atomic.fetch_and_add next_state_token 1 in
    let cell = ref None in
    ignore
      (Scheduler.submit sched ~name:("build:" ^ label)
         ~footprint:
           { Footprint.reads = [];
             writes = [ Footprint.State token; Footprint.Telemetry ] }
         (fun () ->
           cell := Some (build_shared cfgn machine ~tele ~mode original)));
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
      let label = original.Proc.name ^ ":" ^ Heuristic.name heuristic in
      let sb_token, cell =
        match heuristic, shared with
        | Heuristic.Irc, _ | _, None ->
          submit_build ~label ~mode:(coalesce_mode_of cfgn heuristic)
        | _, Some shared -> shared
      in
      let pipe_token = Atomic.fetch_and_add next_state_token 1 in
      let step =
        dag_submit sched ~label
          ~footprint:
            { Footprint.reads = [ Footprint.State sb_token ];
              writes = [ Footprint.State pipe_token; Footprint.Telemetry ] }
      in
      (* the fallback is a task of its own, beside the chain: its own
         token and a sibling context, since the chain keeps [ctx] busy *)
      let fork f =
        let token = Atomic.fetch_and_add next_state_token 1 in
        ignore
          (Scheduler.submit sched ~name:("fallback:" ^ label)
             ~footprint:
               { Footprint.reads = [];
                 writes = [ Footprint.State token; Footprint.Telemetry ] }
             (fun () -> f (Context.sibling ctx)))
      in
      let slot = ref None in
      let st =
        new_state cfgn ~context:ctx machine heuristic original ~step ~fork
          ~cutoff:no_cutoff
          ~deliver:(fun o -> slot := Some o)
      in
      step ~stage:"color" (fun () ->
        match !cell with
        | Some (b, build_time) ->
          Telemetry.counter st.tele "alloc.procs" 1;
          (* plant the shared build as this context's previous pass, so
             a spill pass patches it incrementally — exactly what a
             sequential pass 1 would have left behind *)
          Context.adopt_prev ctx ~cfg:b.cfg ~built:b.built;
          let timer = Timer.create () in
          Timer.add timer ~phase:Phase.Build build_time;
          color st 1 ~timer b
        | None ->
          (* the State edge guarantees the shared build ran first *)
          assert false);
      slot)
    pipelines
