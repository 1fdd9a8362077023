(* `bench/main.exe [picks] --json` — machine-readable allocation report.

   Every selected routine is allocated in four modes per heuristic: with
   an incremental context (structures patched across spill passes, edge
   cache off), with incrementality disabled (from-scratch builds every
   pass), with an incremental context whose graph build runs on a domain
   pool, and with the per-block edge cache on (dirty-block rescans across
   coalescing rounds and spill passes). Each mode runs a few times and
   the per-pass phase times keep the element-wise minimum. The runs must agree on everything
   except CPU time — pass-by-pass counters, spill totals, and the final
   allocated code — and the report records all four time series so the
   pass-2+ build-time saving, the parallel build time, and the cached
   rescan saving are visible in the committed artifact. Each pass also
   records the cached run's coalescing-round count, edge-cache hit rate
   and fraction of blocks rescanned. It also times the FULL benchmark
   suite (every routine, every heuristic, regardless of picks) end to
   end three ways — sequentially on one warm context, procedure-per-task
   on the flat pool (RA_SCHED=flat), and as the footprint-ordered task
   DAG on the work-stealing scheduler (RA_SCHED=dag, the default) — and
   records the DAG run's scheduler counters (tasks, steals, derived
   edges, queue high-water mark, per-domain utilization). The DAG wall
   must beat the sequential wall — a slower scheduler is a regression
   and the process exits non-zero. It also times the suite with
   telemetry disabled versus buffering every span, asserting the
   disabled path stays free. Aggregate cache behaviour comes straight
   off the pipeline's telemetry counters (the cached context reports
   into a sink). Any disagreement is a divergence: it is reported in the
   JSON and the process exits non-zero (CI runs this as a smoke check
   with RA_JOBS=4, so zero divergences is asserted for the parallel,
   cached and DAG paths on every push). *)

open Ra_core

let heuristics =
  [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula; Heuristic.Irc ]

type timed_pass = {
  counters : int * int * int * int * int * int * int * int * float;
    (* pass_index, webs, coalesced, nodes_int, nodes_flt, edges_int,
       edges_flt, spilled, spill_cost *)
  times : float * float * float * float * float;
    (* build, coalesce, simplify, color, spill *)
}

let strip (p : Allocator.pass_record) =
  { counters =
      ( p.Allocator.pass_index,
        p.Allocator.webs_initial,
        p.Allocator.webs_coalesced,
        p.Allocator.nodes_int,
        p.Allocator.nodes_flt,
        p.Allocator.edges_int,
        p.Allocator.edges_flt,
        p.Allocator.spilled,
        p.Allocator.spill_cost );
    times =
      ( p.Allocator.build_time,
        p.Allocator.coalesce_time,
        p.Allocator.simplify_time,
        p.Allocator.color_time,
        p.Allocator.spill_time ) }

(* Everything observable about a result except CPU time (and the cache
   hit counters, which legitimately differ between modes). *)
let fingerprint (r : Allocator.result) =
  ( List.map (fun p -> (strip p).counters) r.Allocator.passes,
    r.Allocator.live_ranges,
    r.Allocator.total_spilled,
    r.Allocator.total_spill_cost,
    r.Allocator.moves_removed,
    Ra_ir.Proc.to_string r.Allocator.proc )

let buf_time b t = Buffer.add_string b (Printf.sprintf "%.6f" t)

(* allocator diagnostics go into JSON strings verbatim *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* cost-blind Matula assigns infinite spill costs; JSON has no inf *)
let json_cost c =
  if Float.is_finite c then Printf.sprintf "%.1f" c
  else Printf.sprintf "\"%s\"" (if c > 0.0 then "inf" else "-inf")

let buf_times b label { times = bt, cot, st, ct, spt; _ } =
  Buffer.add_string b (Printf.sprintf "\"%s\": {\"build\": " label);
  buf_time b bt;
  Buffer.add_string b ", \"coalesce\": ";
  buf_time b cot;
  Buffer.add_string b ", \"simplify\": ";
  buf_time b st;
  Buffer.add_string b ", \"color\": ";
  buf_time b ct;
  Buffer.add_string b ", \"spill\": ";
  buf_time b spt;
  Buffer.add_string b "}"

let routines_for picks =
  let fig7_only =
    picks <> [] && List.for_all (fun p -> p = "fig7") picks
  in
  if fig7_only then
    List.map
      (fun (routine, pname) -> (Ra_programs.Suite.find pname, Some routine))
      Fig7.routines_of_interest
  else List.map (fun p -> (p, None)) Ra_programs.Suite.all

(* One timing sample per pass is hostage to scheduler noise, so each
   mode allocates every routine [reps] times and the report keeps the
   element-wise minimum of the per-pass phase times. Everything else
   about the runs is deterministic — the repetitions must produce equal
   fingerprints, which the divergence check below sees through the
   returned (first-run) result. *)
let reps = 5

let min_times (a : Allocator.pass_record) (b : Allocator.pass_record) =
  { a with
    Allocator.build_time = Float.min a.Allocator.build_time b.Allocator.build_time;
    coalesce_time = Float.min a.Allocator.coalesce_time b.Allocator.coalesce_time;
    simplify_time = Float.min a.Allocator.simplify_time b.Allocator.simplify_time;
    color_time = Float.min a.Allocator.color_time b.Allocator.color_time;
    spill_time = Float.min a.Allocator.spill_time b.Allocator.spill_time }

let allocate_best ~context machine h proc =
  let first = Allocator.allocate ~context machine h proc in
  let best = ref first.Allocator.passes in
  for _ = 2 to reps do
    let again = Allocator.allocate ~context machine h proc in
    if fingerprint again = fingerprint first then
      best := List.map2 min_times !best again.Allocator.passes
  done;
  { first with Allocator.passes = !best }

(* Wall-clock (not Sys.time's CPU time — parallel runs burn CPU on every
   domain) for the suite-level sequential-vs-dispatched comparison. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

let run ~picks () =
  let machine = Machine.rt_pc in
  (* at least 2 workers so the parallel path is exercised — and asserted
     against the sequential builds — even on a single-core runner. The
     default is pinned before anything touches the shared pool or the
     global scheduler, fixing both at this width. The suite-wall
     scheduler below is sized to [hw_jobs], the machine's real width:
     oversubscribing domains onto fewer cores measures contention, not
     scheduling. *)
  let hw_jobs = Ra_support.Pool.default_jobs () in
  let jobs = max 2 hw_jobs in
  Ra_support.Pool.set_default_jobs jobs;
  let pool = Ra_support.Pool.create ~jobs in
  (* the cached mode's context reports into a real sink: the aggregate
     edge-cache section below reads the pipeline's own counters off it
     instead of re-accumulating pass records by hand *)
  let cac_tele = Ra_support.Telemetry.create () in
  let inc_ctx =
    Context.create ~incremental:true ~edge_cache:false ~jobs:1 machine
  in
  let scr_ctx =
    Context.create ~incremental:false ~edge_cache:false ~jobs:1 machine
  in
  let par_ctx = Context.create ~incremental:true ~pool machine in
  let cac_ctx =
    Context.create ~incremental:true ~edge_cache:true ~tele:cac_tele ~jobs:1
      machine
  in
  let divergences = ref [] in
  let entries = ref 0 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"benchmarks\": [";
  let first_entry = ref true in
  let selected_procs = ref [] in
  List.iter
    (fun (program, only) ->
      let procs = Ra_programs.Suite.compile program in
      let procs =
        match only with
        | None -> procs
        | Some routine ->
          List.filter (fun (p : Ra_ir.Proc.t) -> p.name = routine) procs
      in
      selected_procs := !selected_procs @ procs;
      List.iter
        (fun (proc : Ra_ir.Proc.t) ->
          List.iter
            (fun h ->
              (* a cell the heuristic cannot allocate at all (Matula on
                 euler_main) gets no benchmark entry; the probe pass
                 below records it in the report's "excluded" list *)
              match allocate_best ~context:inc_ctx machine h proc with
              | exception Pipeline.Allocation_failure _ -> ()
              | inc ->
              let scr = allocate_best ~context:scr_ctx machine h proc in
              let par = allocate_best ~context:par_ctx machine h proc in
              let cac = allocate_best ~context:cac_ctx machine h proc in
              let diverge tag =
                divergences :=
                  Printf.sprintf "%s/%s/%s/%s"
                    program.Ra_programs.Suite.pname proc.name
                    (Heuristic.name h) tag
                  :: !divergences
              in
              let inc_ok = fingerprint inc = fingerprint scr in
              let par_ok = fingerprint par = fingerprint scr in
              let cac_ok = fingerprint cac = fingerprint scr in
              if not inc_ok then diverge "incremental";
              if not par_ok then diverge "parallel";
              if not cac_ok then diverge "cached";
              if not !first_entry then Buffer.add_string buf ",";
              first_entry := false;
              incr entries;
              Buffer.add_string buf
                (Printf.sprintf
                   "\n    {\"program\": \"%s\", \"routine\": \"%s\", \
                    \"heuristic\": \"%s\",\n     \"equivalent\": %b, \
                    \"live_ranges\": %d, \"passes\": %d, \"spilled\": %d, \
                    \"spill_cost\": %s, \"moves_removed\": %d, \
                    \"moves_coalesced\": %d,\n     \
                    \"per_pass\": ["
                   program.Ra_programs.Suite.pname proc.name
                   (Heuristic.name h) (inc_ok && par_ok && cac_ok)
                   inc.Allocator.live_ranges
                   (List.length inc.Allocator.passes)
                   inc.Allocator.total_spilled
                   (json_cost inc.Allocator.total_spill_cost)
                   inc.Allocator.moves_removed
                   (List.fold_left
                      (fun acc p -> acc + p.Allocator.webs_coalesced)
                      0 inc.Allocator.passes));
              (* zip without raising when a divergence changed the pass
                 count; the shortest series bounds the table *)
              let rec zip4 a b c d =
                match a, b, c, d with
                | x :: a, y :: b, z :: c, w :: d -> (x, y, z, w) :: zip4 a b c d
                | _, _, _, _ -> []
              in
              List.iteri
                (fun i (pi, ps, pp, pc) ->
                  if i > 0 then Buffer.add_string buf ",";
                  let idx, webs, coalesced, _, _, _, _, spilled, spill_cost =
                    (strip pi).counters
                  in
                  let hits = pc.Allocator.cache_hits in
                  let misses = pc.Allocator.cache_misses in
                  let scans = hits + misses in
                  let rate part =
                    if scans = 0 then "null"
                    else Printf.sprintf "%.4f" (float part /. float scans)
                  in
                  Buffer.add_string buf
                    (Printf.sprintf
                       "\n       {\"pass\": %d, \"webs\": %d, \
                        \"coalesced\": %d, \"spilled\": %d, \
                        \"spill_cost\": %s, \"build_rounds\": %d,\n        \
                        \"cache_hits\": %d, \"cache_misses\": %d, \
                        \"cache_hit_rate\": %s, \
                        \"blocks_rescanned_frac\": %s,\n        "
                       idx webs coalesced spilled (json_cost spill_cost)
                       pc.Allocator.build_rounds hits misses (rate hits)
                       (rate misses));
                  buf_times buf "incremental" (strip pi);
                  Buffer.add_string buf ",\n        ";
                  buf_times buf "scratch" (strip ps);
                  Buffer.add_string buf ",\n        ";
                  buf_times buf "parallel" (strip pp);
                  Buffer.add_string buf ",\n        ";
                  buf_times buf "cached" (strip pc);
                  Buffer.add_string buf "}")
                (zip4 inc.Allocator.passes scr.Allocator.passes
                   par.Allocator.passes cac.Allocator.passes);
              Buffer.add_string buf "]}")
            heuristics)
        procs)
    (routines_for picks);
  let procs = !selected_procs in
  let alloc_all ctx =
    List.iter
      (fun p ->
        List.iter
          (fun h ->
            (* skip the goldened unallocatable cells (Matula on
               euler_main) — both sides of every timing comparison skip
               identically, so the walls stay comparable *)
            match Allocator.allocate ~context:ctx machine h p with
            | _ -> ()
            | exception Pipeline.Allocation_failure _ -> ())
          heuristics)
      procs
  in
  (* suite-level wall-clock over the FULL suite — every routine of every
     program, however narrow the picks above were (a four-routine wall
     says nothing about scheduling) — end to end, every heuristic:
     sequentially on one warm context, procedure-per-task on the flat
     pool, and as the footprint-ordered task DAG. Min of [wall_reps]
     walls per mode; the DAG rep that sets the minimum keeps its
     scheduler counters. The first sequential and DAG reps must agree
     on every fingerprint (bit-identical outcomes), and the DAG wall
     must beat the sequential one — that gate is the point of the
     scheduler. *)
  (* Routines a measured heuristic cannot allocate on this machine at
     all (cost-blind Matula gives up on euler_main's call-heavy k=16
     pressure — a known, goldened failure) would abort every mode's
     matrix identically; probe every (routine, heuristic) cell once and
     time the allocatable rest. Each failing cell is recorded in the
     JSON with the allocator's own diagnostic, so a new exclusion — or
     a changed reason for a known one — is visible in the artifact. *)
  let all_procs =
    List.concat_map Ra_programs.Suite.compile Ra_programs.Suite.all
  in
  let probe_ctx = Context.create ~jobs:1 machine in
  let probe_failures =
    List.concat_map
      (fun (p : Ra_ir.Proc.t) ->
        List.filter_map
          (fun h ->
            match Allocator.allocate ~context:probe_ctx machine h p with
            | _ -> None
            | exception Pipeline.Allocation_failure reason ->
              Some (p.Ra_ir.Proc.name, Heuristic.name h, reason))
          heuristics)
      all_procs
  in
  let suite_procs =
    List.filter
      (fun (p : Ra_ir.Proc.t) ->
        not
          (List.exists (fun (name, _, _) -> name = p.Ra_ir.Proc.name)
             probe_failures))
      all_procs
  in
  let wall_reps = 3 in
  let min_wall f =
    let best = ref infinity in
    for _ = 1 to wall_reps do
      let (), s = wall f in
      if s < !best then best := s
    done;
    !best
  in
  let suite_seq () =
    let ctx = Context.create ~jobs:1 machine in
    List.map
      (fun h -> Batch.allocate_all ~context:ctx machine h suite_procs)
      heuristics
  in
  let seq_fps = ref [] in
  let seq_s = ref infinity in
  for r = 1 to wall_reps do
    let res, s = wall suite_seq in
    if r = 1 then seq_fps := List.map (List.map fingerprint) res;
    if s < !seq_s then seq_s := s
  done;
  let seq_s = !seq_s in
  let flat_s =
    min_wall (fun () ->
      ignore
        (Batch.allocate_matrix ~sched:Batch.Flat machine heuristics
           suite_procs))
  in
  let sched = Ra_support.Scheduler.create ~jobs:hw_jobs in
  let dag_s = ref infinity in
  let dag_stats = ref (Ra_support.Scheduler.stats sched) in
  for r = 1 to wall_reps do
    Ra_support.Scheduler.reset_stats sched;
    let res, s =
      wall (fun () ->
        Batch.allocate_matrix ~sched:Batch.Dag ~scheduler:sched machine
          heuristics suite_procs)
    in
    if r = 1 && List.map (List.map fingerprint) res <> !seq_fps then
      divergences := "suite/dag" :: !divergences;
    if s < !dag_s then begin
      dag_s := s;
      dag_stats := Ra_support.Scheduler.stats sched
    end
  done;
  Ra_support.Scheduler.shutdown sched;
  let dag_s = !dag_s and dag_stats = !dag_stats in
  (* per-heuristic suite figures: wall, total spills, removed/coalesced
     moves — one warm sequential context per heuristic, min-of-reps
     walls, first-rep results (deterministic; the fingerprint gates
     above police that). The irc row additionally gets a coalesce-off
     ablation run, which the IRC gates below compare against the
     worklist run routine by routine. *)
  let per_heuristic =
    List.map
      (fun h ->
        let ctx = Context.create ~jobs:1 machine in
        let results = ref [] in
        let w = ref infinity in
        for r = 1 to wall_reps do
          let res, s =
            wall (fun () ->
              Batch.allocate_all ~context:ctx machine h suite_procs)
          in
          if r = 1 then results := res;
          if s < !w then w := s
        done;
        (h, !results, !w))
      heuristics
  in
  let results_of h =
    let _, res, _ = List.find (fun (h', _, _) -> h' = h) per_heuristic in
    res
  in
  let coalesced_total (r : Allocator.result) =
    List.fold_left (fun acc p -> acc + p.Allocator.webs_coalesced) 0
      r.Allocator.passes
  in
  let per_heuristic_json =
    String.concat ","
      (List.map
         (fun (h, res, w) ->
           Printf.sprintf
             "\n    {\"heuristic\": \"%s\", \"suite_wall_s\": %.6f, \
              \"spilled\": %d, \"moves_removed\": %d, \
              \"moves_coalesced\": %d}"
             (Heuristic.name h) w
             (List.fold_left (fun a r -> a + r.Allocator.total_spilled) 0 res)
             (List.fold_left (fun a r -> a + r.Allocator.moves_removed) 0 res)
             (List.fold_left (fun a r -> a + coalesced_total r) 0 res))
         per_heuristic)
  in
  (* The IRC acceptance gates. Spills: conservative coalescing must
     never cost spills, so routine by routine the worklist run spills
     no more than its coalesce-off twin (which degenerates to briggs'
     engine exactly). Moves: on the move-heavy routines — where
     aggressive coalescing (briggs' Build fixpoint) removes at least 10
     copies — irc must remove at least as many on at least half of
     them, or the conservative tests have grown too timid to justify
     the fourth column. *)
  let irc_on = results_of Heuristic.Irc in
  let irc_off =
    let ctx = Context.create ~jobs:1 machine in
    List.map
      (fun p ->
        Allocator.allocate ~coalesce:false ~context:ctx machine Heuristic.Irc
          p)
      suite_procs
  in
  let spill_gate_fails =
    List.filter_map
      (fun ((p : Ra_ir.Proc.t), (on_r, off_r)) ->
        if on_r.Allocator.total_spilled > off_r.Allocator.total_spilled then
          Some
            (Printf.sprintf "%s: irc spills %d > no-coalesce %d" p.name
               on_r.Allocator.total_spilled off_r.Allocator.total_spilled)
        else None)
      (List.combine suite_procs (List.combine irc_on irc_off))
  in
  let briggs_res = results_of Heuristic.Briggs in
  let move_heavy =
    List.filter
      (fun ((b : Allocator.result), _) -> b.Allocator.moves_removed >= 10)
      (List.combine briggs_res irc_on)
  in
  let move_wins =
    List.length
      (List.filter
         (fun ((b : Allocator.result), (i : Allocator.result)) ->
           i.Allocator.moves_removed >= b.Allocator.moves_removed)
         move_heavy)
  in
  let moves_gate_ok = 2 * move_wins >= List.length move_heavy in
  (* DAG engagement: the lent wide_pool is only worth its plumbing if a
     DAG suite run actually enters the speculative Select engine. Suite
     graphs sit under the engine's production node floor (it exists to
     keep small routines sequential), so the floor drops to 1 for this
     one run — the engine's structural chunk minimum still decides per
     graph — and the run's own telemetry sink is read back for the
     engagement counter. The outcomes must still fingerprint
     identically to the sequential suite. *)
  let eng_tele = Ra_support.Telemetry.create () in
  (* sized to [jobs], not [hw_jobs]: this asserts the engagement
     plumbing, not a speedup, and must exercise it on 1-core runners *)
  let eng_sched = Ra_support.Scheduler.create ~jobs in
  let eng_res =
    Fun.protect
      ~finally:(fun () ->
        Par_color.set_min_nodes None;
        Ra_support.Scheduler.shutdown eng_sched)
      (fun () ->
        Par_color.set_min_nodes (Some 1);
        Batch.allocate_matrix ~sched:Batch.Dag ~scheduler:eng_sched
          ~tele:eng_tele machine heuristics suite_procs)
  in
  let eng_color =
    Ra_support.Telemetry.counter_total eng_tele "par_color.engaged"
  in
  let eng_identical = List.map (List.map fingerprint) eng_res = !seq_fps in
  if not eng_identical then
    divergences := "suite/dag-engagement" :: !divergences;
  if eng_color = 0 then
    divergences :=
      "dag engagement: par_color never engaged on the suite" :: !divergences;
  (* telemetry overhead: the routine set end to end with the sink
     disabled (the default) vs buffering every span and counter.
     Min-of-reps on both sides; the disabled path must not be slower
     than the enabled one beyond noise — it is a no-op by construction,
     and this assertion is what keeps it one. *)
  (* off/on reps interleave so slow machine drift (thermal, noisy
     neighbors) hits both sides equally instead of biasing whichever
     block ran second *)
  let tele_off_s = ref infinity and tele_on_s = ref infinity in
  for _ = 1 to wall_reps do
    let (), s =
      wall (fun () ->
        alloc_all
          (Context.create ~tele:Ra_support.Telemetry.null ~jobs:1 machine))
    in
    if s < !tele_off_s then tele_off_s := s;
    let (), s =
      wall (fun () ->
        alloc_all
          (Context.create ~tele:(Ra_support.Telemetry.create ()) ~jobs:1
             machine))
    in
    if s < !tele_on_s then tele_on_s := s
  done;
  let tele_off_s = !tele_off_s and tele_on_s = !tele_on_s in
  (* race-check overhead: with the flag off every access hook is a
     single ref load, so the uninstrumented-off path must track the
     plain run; with it on, the suite must come back race-clean. The
     checked rep runs as the task DAG so the vector-clock analyzer
     validates the footprint-derived schedule itself — every shared
     access must be ordered by a derived edge. *)
  let race_off_s = min_wall (fun () -> alloc_all (Context.create ~jobs:1 machine)) in
  let race_errors = ref 0 in
  let race_on_s =
    (* the matrix aborts on an unallocatable cell, so the checked rep
       runs the probe-filtered routine set *)
    let race_procs =
      List.filter
        (fun (p : Ra_ir.Proc.t) ->
          not
            (List.exists (fun (name, _, _) -> name = p.Ra_ir.Proc.name)
               probe_failures))
        procs
    in
    min_wall (fun () ->
      let _, diags =
        Ra_check.Race.with_check (fun () ->
          ignore
            (Batch.allocate_matrix ~sched:Batch.Dag machine heuristics
               race_procs))
      in
      race_errors := List.length (Ra_check.Diagnostic.errors diags))
  in
  if !race_errors > 0 then
    divergences :=
      Printf.sprintf "race check: %d error(s) on the benchmark suite"
        !race_errors
      :: !divergences;
  let inc_stats = Context.stats inc_ctx in
  let scr_stats = Context.stats scr_ctx in
  (* aggregate cache behaviour straight off the pipeline's counters on
     the cached context's sink — totals cover every cached-mode
     allocation above, timing repetitions included, so the hit *rate* is
     the comparable number *)
  let cache_hits_total =
    Ra_support.Telemetry.counter_total cac_tele "edge_cache.hits"
  in
  let cache_misses_total =
    Ra_support.Telemetry.counter_total cac_tele "edge_cache.misses"
  in
  let total_scans = cache_hits_total + cache_misses_total in
  (* analysis-cache behaviour: the dominator/loop cache is consumed by
     the verify-gated lints (and the incremental build's adoption
     check), so none of the verify-off walls above touch it. Run the
     routine set once through a verify-enabled incremental context and
     read the cache's own counters — hits come from loop-depth lints
     reusing the dominator entry, repeat heuristics on a routine, and
     re-keyed entries surviving spill-patch passes. *)
  let aca_ctx = Context.create ~incremental:true ~verify:true ~jobs:1 machine in
  List.iter
    (fun p ->
      List.iter
        (fun h ->
          ignore (Allocator.allocate ~verify:true ~context:aca_ctx machine h p))
        heuristics)
    suite_procs;
  let aca = Context.analysis_cache aca_ctx in
  let aca_hits = Ra_analysis.Analysis_cache.hits aca in
  let aca_misses = Ra_analysis.Analysis_cache.misses aca in
  let aca_lookups = aca_hits + aca_misses in
  (* the speculative-coloring section: synthetic graphs, sequential
     baseline vs engine at widths 1/2/4/8, with its own gates *)
  let par_color_json, par_color_fails = Synth_bench.section () in
  let utilization =
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun busy ->
              Printf.sprintf "%.4f" (busy /. Float.max dag_s 1e-9))
            dag_stats.Ra_support.Scheduler.busy_s))
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"jobs\": %d,\n  \"suite\": {\"routines\": %d, \
        \"excluded\": [%s], \"sequential_wall_s\": %.6f, \
        \"flat_wall_s\": %.6f, \"dag_wall_s\": %.6f, \
        \"parallel_wall_s\": %.6f,\n    \
        \"sched\": {\"jobs\": %d, \"tasks\": %d, \"steals\": %d, \
        \"edges\": %d, \"max_queue_depth\": %d, \
        \"utilization\": [%s]}},\n  \
        \"per_heuristic\": [%s\n  ],\n  \
        \"irc_gates\": {\"spill_violations\": [%s], \
        \"move_heavy_routines\": %d, \"move_wins\": %d},\n  \
        \"telemetry\": {\"disabled_wall_s\": %.6f, \
        \"enabled_wall_s\": %.6f, \"enabled_overhead_frac\": %.4f,\n    \
        \"counters\": {%s}},\n  \
        \"race_check\": {\"disabled_wall_s\": %.6f, \
        \"checked_wall_s\": %.6f, \"errors\": %d},\n  \
        \"context\": {\"incremental_builds\": %d, \
        \"scratch_builds\": %d, \"verified_builds\": %d, \
        \"reference_scratch_builds\": %d},\n  \
        \"edge_cache\": {\"hits\": %d, \"misses\": %d, \
        \"hit_rate\": %s},\n  \
        \"analysis_cache\": {\"hits\": %d, \"misses\": %d, \
        \"hit_rate\": %s},\n  \
        \"dag_engagement\": {\"par_color_engaged\": %d, \
        \"identical\": %b},\n  \
        \"par_color\": %s,\n  \"divergences\": [%s]\n}\n"
       jobs
       (List.length suite_procs)
       (String.concat ", "
          (List.map
             (fun (routine, heuristic, reason) ->
               Printf.sprintf
                 "{\"routine\": \"%s\", \"heuristic\": \"%s\", \
                  \"reason\": \"%s\"}"
                 routine heuristic (json_escape reason))
             probe_failures))
       seq_s flat_s dag_s dag_s hw_jobs dag_stats.Ra_support.Scheduler.tasks
       dag_stats.Ra_support.Scheduler.steals
       dag_stats.Ra_support.Scheduler.edges
       dag_stats.Ra_support.Scheduler.max_queue_depth utilization
       per_heuristic_json
       (String.concat ", "
          (List.map
             (fun f -> Printf.sprintf "\"%s\"" (json_escape f))
             spill_gate_fails))
       (List.length move_heavy) move_wins tele_off_s
       tele_on_s
       ((tele_on_s -. tele_off_s) /. Float.max tele_off_s 1e-9)
       (String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v)
             (Ra_support.Telemetry.counter_totals cac_tele)))
       race_off_s race_on_s !race_errors
       inc_stats.Context.incremental_builds inc_stats.Context.scratch_builds
       inc_stats.Context.verified_builds scr_stats.Context.scratch_builds
       cache_hits_total cache_misses_total
       (if total_scans = 0 then "null"
        else
          Printf.sprintf "%.4f"
            (float cache_hits_total /. float total_scans))
       aca_hits aca_misses
       (if aca_lookups = 0 then "null"
        else Printf.sprintf "%.4f" (float aca_hits /. float aca_lookups))
       eng_color eng_identical par_color_json
       (String.concat ", "
          (List.rev_map (Printf.sprintf "\"%s\"") !divergences)));
  let path = "BENCH_alloc.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "wrote %s (%d benchmark entries, %d jobs, full suite %.3fs seq / %.3fs \
     flat / %.3fs dag, telemetry off %.3fs / on %.3fs, cache hit rate %s, %d \
     divergence(s))\n"
    path !entries jobs seq_s flat_s dag_s tele_off_s tele_on_s
    (if total_scans = 0 then "n/a"
     else
       Printf.sprintf "%.1f%%"
         (100.0 *. float cache_hits_total /. float total_scans))
    (List.length !divergences);
  (* disabled telemetry must stay free: allow 2% plus an absolute 2ms of
     timer noise before calling it a regression *)
  if tele_off_s > (tele_on_s *. 1.02) +. 0.002 then begin
    Printf.eprintf
      "telemetry: disabled path slower than enabled (%.6fs vs %.6fs) — the \
       no-op path has stopped being one\n"
      tele_off_s tele_on_s;
    exit 1
  end;
  if !divergences <> [] then begin
    List.iter
      (fun d -> Printf.eprintf "divergence: modes disagree for %s\n" d)
      (List.rev !divergences);
    exit 1
  end;
  (* the scheduler's reason to exist: the DAG dispatch of the full suite
     must beat allocating it sequentially, or the PR regressed *)
  if dag_s >= seq_s then begin
    Printf.eprintf
      "suite: DAG wall %.6fs >= sequential wall %.6fs — the task-DAG \
       schedule is not paying for itself\n"
      dag_s seq_s;
    exit 1
  end;
  (* the IRC gates: conservative coalescing must be safe (never a spill
     worse than coalescing off) and worth having (at least half the
     move-heavy routines coalesce no worse than aggressively) *)
  if spill_gate_fails <> [] then begin
    List.iter (fun f -> Printf.eprintf "irc spill gate: %s\n" f)
      spill_gate_fails;
    exit 1
  end;
  if not moves_gate_ok then begin
    Printf.eprintf
      "irc move gate: matched aggressive coalescing on only %d of %d \
       move-heavy routines\n"
      move_wins (List.length move_heavy);
    exit 1
  end;
  (* the speculative engine's gates: bit-identical everywhere, width 1
     never regresses, and width >= 2 beats the baseline outright on the
     big synthetic graphs *)
  if par_color_fails <> [] then begin
    List.iter (fun f -> Printf.eprintf "%s\n" f) par_color_fails;
    exit 1
  end
