(* rabench — the end-to-end benchmark: MFL source to verified allocated
   code (or a synthetic interference graph to a checked coloring), over
   four workloads, with a traced per-layer split.

     rabench --workload W [--seed N] [--seconds S] [--trace 0|1]
             [--trace-out FILE]
     rabench --all [--seed N] [--seconds S] [--trace 0|1]
     rabench --smoke

   Each metric prints as "name value unit"; the last line is one JSON
   object {correct, attempted, failed, metrics}. --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones. The exit code is
   non-zero when any output check fails. README.md has the details. *)

open Ra_core
module W = Workload
module Telemetry = Ra_support.Telemetry
module Phase = Ra_support.Phase
module Lcg = Ra_support.Lcg

let now = Unix.gettimeofday

(* ---- the metric sets (BENCHMARK.json names the same ones) ---- *)

let end_to_end =
  [ "setup_s", "s"; "op_ms.p50", "ms"; "op_ms.p90", "ms";
    "ops_per_s", "ops/s"; "ok_frac", "ratio"; "spilled", "live_ranges";
    "exec_cycles.geomean", "cycles"; "code_size", "instrs";
    "peak_rss_mb", "MiB" ]

(* The allocator's counters, without the per-domain [.d<n>] copies and
   the race checker's, which a measuring run never enables. *)
let counters =
  [ "alloc.passes"; "alloc.procs"; "alloc.spilled"; "alloc.moves_removed";
    "analysis_cache.hits"; "analysis_cache.misses"; "edge_cache.hits";
    "edge_cache.misses"; "coalesce.rounds"; "coalesce.moves_remaining";
    "irc.moves_coalesced"; "irc.frozen"; "irc.constrained";
    "irc.fallback_runs"; "irc.fallback_kept"; "par_color.engaged";
    "par_color.rounds"; "par_color.suspects"; "par_color.recolored";
    "par_color.declined_irc"; "par_simplify.engaged"; "par_simplify.rounds";
    "par_simplify.peeled"; "par_simplify.defers"; "par_simplify.repaired";
    "par_simplify.elections"; "par_simplify.declined_irc"; "sched.tasks";
    "sched.edges"; "sched.steals"; "sched.lpt_displaced"; "pool.tasks";
    "pool.queue_wait_us" ]

(* Outer spans the benchmark records, and the per-layer time each feeds. *)
let layer_times =
  [ "frontend.parse", "frontend.parse_s";
    "frontend.typecheck", "frontend.typecheck_s";
    "ir.codegen", "ir.codegen_s";
    "opt.optimize", "opt.busy_s";
    "core.alloc", "core.alloc_s" ]

let per_layer =
  [ "frontend.parse_s", "s"; "frontend.typecheck_s", "s"; "ir.codegen_s", "s";
    "ir.instrs_out", "instrs"; "opt.busy_s", "s"; "opt.cse_rewrites", "count";
    "opt.hoisted", "count"; "opt.dead_removed", "count";
    "opt.instrs_out", "instrs"; "core.alloc_s", "s"; "core.alloc_self_s", "s";
    "core.passes", "count"; "core.build_rounds", "count";
    "core.live_ranges", "count"; "core.webs_coalesced", "count";
    "core.edges", "count"; "core.moves_removed", "count";
    "core.spill_cost_finite", "cost"; "core.inf_cost_ops", "ops";
    "core.minor_words", "words"; "core.major_words", "words" ]
  @ List.map (fun p -> "span." ^ Phase.name p ^ ".self_s", "s") Phase.all
  @ List.map
      (fun c -> "ctr." ^ c, if c = "pool.queue_wait_us" then "us" else "count")
      counters
  @ [ "ctr.edge_cache.hit_frac", "ratio"; "ctr.sched.steal_frac", "ratio";
      "check.verify_s", "s"; "check.errors", "count";
      "check.subset_violations", "count"; "vm.exec_s", "s"; "vm.ref_s", "s";
      "vm.instructions", "instrs"; "vm.instrs_per_s", "instrs/s";
      "fail.alloc", "cells"; "fail.verify", "cells"; "fail.output", "cells";
      "fail.nondeterministic", "cells"; "trace.unaccounted_frac", "ratio";
      "trace.overhead_frac", "ratio" ]

(* The share of a traced op's wall that no layer span covers may not
   exceed this: the layers must add up to the op. *)
let max_unaccounted = 0.03

(* ---- host speed ---- *)

(* A shared host's speed drifts: on a 2-vCPU cloud VM it dropped by up to
   half for stretches of 10-20 s as other tenants contended for the
   cores, and raw op walls spread 10-28% from run to run. So each op of a
   measuring run follows one pass of a fixed calibration kernel — integer
   array passes, sorting, short-lived hash-table and list allocation,
   code no change to the libraries can touch — on every domain the ops
   run on at once, and its wall is scaled by [kernel_ref_s] over the
   kernels' mean wall: times read as at the speed where the kernel takes
   [kernel_ref_s]. On that VM, over two sets of ten runs per workload,
   this cut the run-to-run spread of the times to 1-12%. *)
let kernel_ref_s = 0.020

let kernel () =
  let a = Array.init 200_000 (fun i -> (i * 7919) land 0xffff) in
  let s = ref 0 in
  for _ = 1 to 12 do
    Array.iter (fun x -> s := !s + x) a;
    Array.sort compare (Array.sub a 0 2000)
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 31 mod 15_000) [ i; i + 1 ]
  done;
  let l = List.init 30_000 (fun i -> (i * 7919) mod 1000) in
  !s + List.length (List.sort compare l) + Hashtbl.length h

(* The factor that scales a wall measured now to the reference speed. An
   op keeps every domain of [pool] busy, and one of them can be contended
   while another is not, so each runs a kernel pass at once. *)
let speed pool =
  let walls =
    match pool with
    | None -> [| 0.0 |]
    | Some p -> Array.make (Ra_support.Pool.jobs p) 0.0
  in
  let pass i =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    walls.(i) <- now () -. t0
  in
  (match pool with
   | None -> pass 0
   | Some p -> Ra_support.Pool.run p ~n:(Array.length walls) pass);
  kernel_ref_s *. float (Array.length walls) /. Array.fold_left ( +. ) 0.0 walls

(* ---- one run of one workload ---- *)

type cell = {
  input : int;
  heuristic : Heuristic.t;
  mutable digest : Digest.t option;
  mutable verdict : W.verdict option;
}

type run = {
  kind : W.kind;
  trace : bool;
  pool : Ra_support.Pool.t option; (* the domains the ops run on *)
  inputs : W.input array;
  cells : cell list;
  mutable walls : float list; (* untraced op walls at the reference speed *)
  mutable raw_walls : float list; (* the same, as the clock read them *)
  mutable attempted : int;
  mutable failed : int;
  mutable ok_walls : int; (* successful untraced ops *)
  mutable paired_untraced : float; (* walls of visits run both ways *)
  mutable paired_traced : float;
  mutable traced_ops : int;
  mutable unaccounted : float;
  acc : W.acc; (* per-layer sums over the traced ops *)
  ca : W.check_acc;
  mutable subset_violations : int;
  mutable problems : string list; (* failed checks *)
  chrome : string list ref option;
  origin : float;
}

let cell_of run i h =
  List.find (fun c -> c.input = i && c.heuristic = h) run.cells

let cell_name run c =
  Printf.sprintf "%s x %s" run.inputs.(c.input).W.label (Heuristic.name c.heuristic)

let problem run msg =
  prerr_endline ("rabench: " ^ msg);
  run.problems <- msg :: run.problems

(* The op's verdict: its cell's first outcome is checked in full, every
   later one must repeat it bit for bit. *)
let judge run c prepared (op : W.op) =
  let d = W.digest op.W.outcome in
  match c.digest with
  | None ->
    c.digest <- Some d;
    let v = W.check run.ca prepared op.W.outcome in
    c.verdict <- Some v;
    (match v with
     | W.Pass _ -> true
     | W.Fail (f, msg) ->
       if f <> W.F_alloc then
         problem run (Printf.sprintf "%s: %s check failed: %s" (cell_name run c) (W.failure_name f) msg);
       false)
  | Some d0 when Digest.equal d d0 ->
    (match c.verdict with Some (W.Pass _) -> true | Some (W.Fail _) | None -> false)
  | Some _ ->
    (match c.verdict with
     | Some (W.Fail (W.F_nondeterministic, _)) -> ()
     | Some _ | None ->
       c.verdict <- Some (W.Fail (W.F_nondeterministic, "outputs differ between reps"));
       problem run (cell_name run c ^ ": allocated code differs between reps"));
    false

let absorb_trace run (op : W.op) =
  let sink, epoch = Option.get op.W.sink in
  let events = Telemetry.events sink in
  let id = (List.hd op.W.spans).Trace.op in
  List.iter
    (fun (name, self) ->
      W.add run.acc ("self." ^ name) self;
      (* the op root's self time is the part no layer covers *)
      if name = "op" then run.unaccounted <- run.unaccounted +. self)
    (Trace.self_times ~outer:op.W.spans ~inner:(Trace.of_sink ~op:id ~epoch events));
  List.iter
    (fun (s : Trace.span) ->
      match List.assoc_opt s.Trace.name layer_times with
      | Some metric -> W.add run.acc metric (s.Trace.t1 -. s.Trace.t0)
      | None -> ())
    op.W.spans;
  List.iter
    (fun (name, total) -> W.add run.acc ("ctr." ^ name) (float total))
    (Telemetry.counter_totals sink);
  Option.iter
    (fun lines ->
      List.iter
        (fun s -> lines := Trace.chrome_of_span ~origin:run.origin s :: !lines)
        op.W.spans;
      List.iter
        (fun e -> lines := Trace.chrome_of_sink_event ~origin:run.origin ~epoch e :: !lines)
        events)
    run.chrome

(* The allocator's own accounting of a traced op, read from its results. *)
let absorb_results run c prepared (op : W.op) =
  let add = W.add run.acc in
  (match c.verdict with
   | Some (W.Pass q) ->
     if Float.is_finite q.W.spill_cost then add "core.spill_cost_finite" q.W.spill_cost
     else add "core.inf_cost_ops" 1.0
   | Some (W.Fail _) | None -> ());
  match op.W.outcome, prepared with
  | W.Allocated rs, _ ->
    List.iter
      (fun (r : Allocator.result) ->
        add "core.live_ranges" (float r.Allocator.live_ranges);
        add "core.moves_removed" (float r.Allocator.moves_removed);
        List.iter
          (fun (p : Allocator.pass_record) ->
            add "core.passes" 1.0;
            add "core.build_rounds" (float p.Allocator.build_rounds);
            add "core.webs_coalesced" (float p.Allocator.webs_coalesced);
            add "core.edges" (float (p.Allocator.edges_int + p.Allocator.edges_flt)))
          r.Allocator.passes)
      rs
  | W.Colored _, W.P_graph (ig, _) ->
    add "core.passes" 1.0;
    add "core.live_ranges" (float (Igraph.n_nodes ig - Igraph.n_precolored ig));
    add "core.edges" (float (Igraph.n_edges ig))
  | W.Colored _, W.P_source _ | W.Alloc_failed _, _ -> ()

let next_id = ref 0

let run_op run ~traced prepared c =
  incr next_id;
  let speed = if run.trace then 1.0 else speed run.pool in
  let op = W.run ~id:!next_id ~traced ~acc:run.acc prepared c.heuristic in
  let ok = judge run c prepared op in
  run.attempted <- run.attempted + 1;
  if not ok then run.failed <- run.failed + 1;
  if traced then begin
    run.traced_ops <- run.traced_ops + 1;
    absorb_trace run op;
    absorb_results run c prepared op
  end
  else begin
    run.walls <- (op.W.wall *. speed) :: run.walls;
    run.raw_walls <- op.W.wall :: run.raw_walls;
    if ok then run.ok_walls <- run.ok_walls + 1
  end;
  op.W.wall *. speed

(* One round runs every cell once: inputs in a seeded order, and each
   input's heuristics in a seeded order. A traced run times every visit
   both ways, alternating which goes first, so drift cancels out of the
   tracing overhead. *)
let round run ~rng ~trace =
  let order = Array.init (Array.length run.inputs) Fun.id in
  Lcg.shuffle rng order;
  let spent = ref 0.0 in
  Array.iter
    (fun i ->
      let input = run.inputs.(i) in
      let prepared = W.prepare input in
      let hs = Array.of_list W.heuristics in
      Lcg.shuffle rng hs;
      Array.iter
        (fun h ->
          if not (W.is_known_failure input.W.label h) then begin
            let c = cell_of run i h in
            if trace then begin
              let traced_first = run.traced_ops mod 2 = 0 in
              let u, t =
                if traced_first then
                  let t = run_op run ~traced:true prepared c in
                  run_op run ~traced:false prepared c, t
                else
                  let u = run_op run ~traced:false prepared c in
                  u, run_op run ~traced:true prepared c
              in
              run.paired_untraced <- run.paired_untraced +. u;
              run.paired_traced <- run.paired_traced +. t;
              spent := !spent +. u +. t
            end
            else spent := !spent +. run_op run ~traced:false prepared c
          end)
        hs)
    order;
  !spent

(* Whole rounds, at least the workload's minimum, and more while one
   more round is expected to fit in [seconds] of op time at the
   reference speed — so the round count does not depend on the host. *)
let measure run ~seed ~seconds ~trace =
  let rng = Lcg.create ~seed in
  let rounds = ref 0 and spent = ref 0.0 in
  while
    !rounds < W.min_rounds run.kind
    || !spent +. (!spent /. float !rounds) <= seconds
  do
    spent := !spent +. round run ~rng ~trace;
    incr rounds
  done;
  !rounds

(* The known-failure cells, attempted once outside the measured ops. *)
let canary run =
  Array.iteri
    (fun i (input : W.input) ->
      List.iter
        (fun h ->
          if W.is_known_failure input.W.label h then begin
            let c = cell_of run i h in
            let prepared = W.prepare input in
            let op = W.run ~id:0 ~traced:false ~acc:(Hashtbl.create 1) prepared h in
            if judge run c prepared op then
              Printf.printf "# note: %s now allocates; it can join the measured ops\n"
                (cell_name run c)
          end)
        W.heuristics)
    run.inputs

let check_subsets run =
  Array.iteri
    (fun i (input : W.input) ->
      match input.W.body with
      | W.Source _ -> ()
      | W.Graph _ ->
        (match
           (cell_of run i Heuristic.Chaitin).verdict,
           (cell_of run i Heuristic.Briggs).verdict
         with
         | Some (W.Pass chaitin), Some (W.Pass briggs) ->
           if not (W.subset_holds ~chaitin ~briggs) then begin
             run.subset_violations <- run.subset_violations + 1;
             problem run (input.W.label ^ ": Briggs spilled a web Chaitin kept")
           end
         | _ -> ()))
    run.inputs

(* ---- set-up ---- *)

let setup_reps = 3

(* Inputs, reference runs, each graph materialized once, and one untimed
   warm-up op. Repeated [setup_reps] times; the last inputs are kept, with
   every repetition's wall. *)
let setup kind ~smoke =
  let once () =
    let t0 = now () in
    let inputs = Array.of_list (W.inputs kind ~smoke) in
    let first = ref None in
    Array.iter
      (fun input ->
        match input.W.body, !first with
        | W.Source _, Some _ -> ()
        | W.Graph _, Some _ -> ignore (W.prepare input)
        | (W.Source _ | W.Graph _), None -> first := Some (W.prepare input))
      inputs;
    ignore
      (W.run ~id:0 ~traced:false ~acc:(Hashtbl.create 1) (Option.get !first)
         Heuristic.Briggs);
    inputs, now () -. t0
  in
  let reps = List.init setup_reps (fun _ -> once ()) in
  let times = List.map snd reps in
  fst (List.nth reps (setup_reps - 1)), times

(* ---- statistics ---- *)

(* The [q] quantile of an ascending array by Harrell and Davis's
   estimator: every order statistic, weighted by a beta density centred
   on [q]. It varies less between runs than any single order statistic:
   over ten suite runs the p90 spread fell from 10% to 3%. The weights
   take the density at each rank's midpoint, within 0.03% of the exact
   incomplete-beta weights at these sample sizes. *)
let quantile sorted q =
  let n = float (Array.length sorted) in
  let a = q *. (n +. 1.0) and b = (1.0 -. q) *. (n +. 1.0) in
  let log_w =
    Array.mapi
      (fun i _ ->
        let x = (float i +. 0.5) /. n in
        ((a -. 1.0) *. log x) +. ((b -. 1.0) *. log (1.0 -. x)))
      sorted
  in
  let top = Array.fold_left Float.max neg_infinity log_w in
  let sum = ref 0.0 and weight = ref 0.0 in
  Array.iteri
    (fun i l ->
      let w = exp (l -. top) in
      sum := !sum +. (w *. sorted.(i));
      weight := !weight +. w)
    log_w;
  !sum /. !weight

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean l =
  exp (List.fold_left (fun s x -> s +. log x) 0.0 l /. float (List.length l))

let ratio a b = if b > 0.0 then a /. b else 0.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  let v = find () in
  close_in ic;
  v

(* ---- metrics ---- *)

let passes run =
  List.filter_map
    (fun c -> match c.verdict with Some (W.Pass q) -> Some q | _ -> None)
    (List.filter
       (fun c -> not (W.is_known_failure run.inputs.(c.input).W.label c.heuristic))
       run.cells)

let end_to_end_values run ~setup_times =
  let walls = Array.of_list run.walls in
  Array.sort Float.compare walls;
  let qs = passes run in
  let sum f = float (List.fold_left (fun n q -> n + f q) 0 qs) in
  (* a kernel pass right after a set-up would pay for the garbage the
     set-up left, so set-up time is scaled by the run's median op factor *)
  [ "setup_s", median setup_times *. median (List.map2 ( /. ) run.walls run.raw_walls);
    "op_ms.p50", 1e3 *. quantile walls 0.5;
    "op_ms.p90", 1e3 *. quantile walls 0.9;
    "ops_per_s", ratio (float run.ok_walls) (Array.fold_left ( +. ) 0.0 walls);
    "ok_frac", ratio (float run.ok_walls) (float (Array.length walls));
    "spilled", sum (fun q -> q.W.spilled);
    "exec_cycles.geomean", (if qs = [] then 0.0 else geomean (List.map (fun q -> q.W.cycles) qs));
    "code_size", sum (fun q -> q.W.code_size);
    "peak_rss_mb", peak_rss_mb () ]

let per_layer_values run =
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt run.acc name) in
  let per_op name = ratio (get name) (float run.traced_ops) in
  let fails f =
    float
      (List.length
         (List.filter
            (fun c -> match c.verdict with Some (W.Fail (g, _)) -> g = f | _ -> false)
            run.cells))
  in
  let ca = run.ca in
  let ref_s =
    Array.fold_left
      (fun (s, n) (input : W.input) ->
        match input.W.body with
        | W.Source src -> s +. src.W.ref_s, n + 1
        | W.Graph _ -> s, n)
      (0.0, 0) run.inputs
  in
  List.map
    (fun (name, _) ->
      let v =
        match name with
        | "core.alloc_self_s" -> per_op "self.core.alloc"
        | "ctr.edge_cache.hit_frac" ->
          ratio (get "ctr.edge_cache.hits") (get "ctr.edge_cache.hits" +. get "ctr.edge_cache.misses")
        | "ctr.sched.steal_frac" -> ratio (get "ctr.sched.steals") (get "ctr.sched.tasks")
        | "check.verify_s" -> ratio ca.W.verify_s (float ca.W.verified)
        | "check.errors" -> float ca.W.errors
        | "check.subset_violations" -> float run.subset_violations
        | "vm.exec_s" -> ratio ca.W.exec_s (float ca.W.executed)
        | "vm.ref_s" -> ratio (fst ref_s) (float (snd ref_s))
        | "vm.instructions" -> ratio (float ca.W.instructions) (float ca.W.executed)
        | "vm.instrs_per_s" -> ratio (float ca.W.instructions) ca.W.exec_s
        | "fail.alloc" -> fails W.F_alloc
        | "fail.verify" -> fails W.F_verify
        | "fail.output" -> fails W.F_output
        | "fail.nondeterministic" -> fails W.F_nondeterministic
        | "trace.unaccounted_frac" -> ratio run.unaccounted run.paired_traced
        | "trace.overhead_frac" -> ratio run.paired_traced run.paired_untraced -. 1.0
        | "core.inf_cost_ops" -> get name
        | _ when String.starts_with ~prefix:"span." name ->
          (* span.<phase>.self_s *)
          per_op ("self." ^ String.sub name 5 (String.length name - 12))
        | _ -> per_op name
      in
      name, v)
    per_layer

(* ---- output ---- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report run ~metrics ~units =
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %s\n" name (number v) (List.assoc name units))
    metrics;
  let correct = run.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct run.attempted run.failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v)
              (List.assoc name units))
          metrics));
  correct

let bench kind ~seed ~seconds ~trace ~trace_out ~smoke =
  let origin = now () in
  let pool = W.op_pool kind in
  let inputs, setup_times =
    match setup kind ~smoke with
    | r -> r
    | exception W.Bad_reference msg ->
      prerr_endline ("rabench: " ^ msg);
      exit 1
  in
  let run =
    { kind; trace; pool; inputs;
      cells =
        List.concat
          (List.init (Array.length inputs) (fun input ->
             List.map
               (fun heuristic -> { input; heuristic; digest = None; verdict = None })
               W.heuristics));
      walls = []; raw_walls = []; attempted = 0; failed = 0; ok_walls = 0;
      paired_untraced = 0.0; paired_traced = 0.0; traced_ops = 0;
      unaccounted = 0.0; acc = Hashtbl.create 64; ca = W.check_acc ();
      subset_violations = 0; problems = [];
      chrome = Option.map (fun _ -> ref []) trace_out; origin }
  in
  let rounds = measure run ~seed ~seconds ~trace in
  canary run;
  check_subsets run;
  let n = List.length run.walls in
  Printf.printf
    "# workload %s seed %d trace %d host_cores %d jobs %d rounds %d\n\
     # ops %d attempted, %d failed; %d untraced op samples, %d beyond p90%s\n"
    (W.name kind) seed (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    (Ra_support.Pool.default_jobs ())
    rounds run.attempted run.failed n
    (n - int_of_float (Float.ceil (0.9 *. float n)))
    (if trace then Printf.sprintf ", %d traced" run.traced_ops else "");
  if not trace then begin
    let raw = Array.of_list run.raw_walls in
    Array.sort Float.compare raw;
    Printf.printf
      "# clock walls: op p50 %.3f ms, p90 %.3f ms; host speed factor median %.3f\n"
      (1e3 *. quantile raw 0.5) (1e3 *. quantile raw 0.9)
      (median (List.map2 ( /. ) run.walls run.raw_walls))
  end;
  Option.iter
    (fun path -> Trace.write_chrome path (List.rev !(Option.get run.chrome)))
    trace_out;
  if trace then begin
    let unaccounted = ratio run.unaccounted run.paired_traced in
    if unaccounted > max_unaccounted then
      problem run
        (Printf.sprintf "layers leave %.1f%% of the traced op wall unaccounted (limit %.0f%%)"
           (100.0 *. unaccounted) (100.0 *. max_unaccounted));
    report run ~metrics:(per_layer_values run) ~units:per_layer
  end
  else report run ~metrics:(end_to_end_values run ~setup_times) ~units:end_to_end

(* ---- command line ---- *)

let usage =
  "rabench --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n\
   rabench --all [--seed N] [--seconds S] [--trace 0|1]\n\
   rabench --smoke\n\
   workloads: suite, synth_large, synth_many, graphs"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("rabench: " ^ s); exit 2) fmt

(* A measuring run refuses RA_* settings: RA_VERIFY adds work to the op,
   RA_TRACE adds store lines to VM output, and RA_JOBS / RA_SCHED and the
   engine switches change the program under test. *)
let refuse_ra_env () =
  let set =
    List.filter
      (fun kv -> String.starts_with ~prefix:"RA_" kv)
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then
    fail "unset %s before measuring (or use --smoke)" (String.concat ", " set)

(* --all: each workload in a child process of its own, one at a time. *)
let run_all ~seed ~seconds ~trace =
  let ok =
    List.fold_left
      (fun ok kind ->
        let args =
          [| Sys.executable_name; "--workload"; W.name kind; "--seed"; string_of_int seed;
             "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ok
        | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> false)
      true W.kinds
  in
  exit (if ok then 0 else 1)

(* --smoke: every workload at tiny sizes with every output check; every
   other one traced, so both reports are exercised. *)
let smoke () =
  let ok =
    List.fold_left
      (fun ok (i, kind) ->
        bench kind ~seed:1 ~seconds:0.0 ~trace:(i mod 2 = 0) ~trace_out:None ~smoke:true
        && ok)
      true
      (List.mapi (fun i k -> i, k) W.kinds)
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 13.0
  and trace = ref false and trace_out = ref None and all = ref false
  and smoke_mode = ref false in
  let spec =
    [ "--workload", Arg.String (fun s ->
          match W.of_name s with Some k -> workload := Some k | None -> fail "unknown workload %S" s),
      "W  workload to run";
      "--seed", Arg.Set_int seed, "N  seed of the op order (default 1)";
      "--seconds", Arg.Set_float seconds, "S  op time at the reference speed to aim for beyond the minimum rounds (default 13)";
      "--trace", Arg.Int (fun t -> trace := t <> 0), "0|1  report per-layer (1) or end-to-end (0) metrics";
      "--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE  write the traced run as a Chrome trace";
      "--all", Arg.Set all, " run every workload, each in its own process";
      "--smoke", Arg.Set smoke_mode, " tiny sizes, every check, a few seconds" ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) usage;
  if !smoke_mode then smoke ();
  refuse_ra_env ();
  if !all then run_all ~seed:!seed ~seconds:!seconds ~trace:!trace;
  match !workload with
  | None -> fail "no workload given\n%s" usage
  | Some kind ->
    if !trace_out <> None && not !trace then fail "--trace-out needs --trace 1";
    let ok =
      bench kind ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_out:!trace_out
        ~smoke:false
    in
    exit (if ok then 0 else 1)
