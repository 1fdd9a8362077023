(* Tests for the footprint algebra (Ra_support.Footprint) and the
   dynamic race detector (Ra_check.Race): token overlap and conflict
   unit tests, happens-before ordering through the pool's submit/join
   edges, pool scheduling counters, and suite-scale race-cleanliness
   sweeps of the allocation matrix's task DAG (ramped up when
   RA_RACE_CHECK is set). The seeded race the detector must catch is
   [Test_sched]'s missing DAG edge.

   Threads are task executions, so a logically-concurrent conflict is
   reported even when one worker happens to serialize the tasks — every
   assertion here is schedule-independent. *)

open Ra_support
open Ra_check
open Ra_core

let qtest = QCheck_alcotest.to_alcotest

let heavy = Race.enabled_from_env ()

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let with_sched ~jobs f =
  let s = Scheduler.create ~jobs in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown s) (fun () -> f s)

let fp ?(reads = []) ?(writes = []) () = { Footprint.reads; writes }

let error_report diags =
  String.concat "\n" (List.map Diagnostic.to_string (Diagnostic.errors diags))

let check_no_errors what diags =
  Alcotest.(check string) what "" (error_report diags)

let has_check name diags =
  List.exists
    (fun d -> Diagnostic.is_error d && d.Diagnostic.check = name)
    diags

(* ---- footprint algebra ---- *)

let footprint_overlap () =
  Alcotest.(check bool) "same token" true
    (Footprint.overlap (Footprint.State 1) (Footprint.State 1));
  Alcotest.(check bool) "different tokens" false
    (Footprint.overlap (Footprint.State 1) (Footprint.State 2));
  Alcotest.(check bool) "telemetry never overlaps" false
    (Footprint.overlap Footprint.Telemetry Footprint.Telemetry)

let footprint_conflict () =
  let a = fp ~writes:[ Footprint.State 1; Footprint.Telemetry ] () in
  let b = fp ~reads:[ Footprint.State 1 ] () in
  let c = fp ~reads:[ Footprint.State 2 ] ~writes:[ Footprint.Telemetry ] () in
  Alcotest.(check bool) "write vs read conflicts" true
    (Footprint.conflict a b <> None);
  Alcotest.(check bool) "disjoint does not" (* telemetry is synchronized *)
    true
    (Footprint.conflict a c = None && Footprint.conflict c a = None)

(* ---- dynamic detection through the real pool ---- *)

let race_between_sibling_tasks () =
  with_pool ~jobs:2 (fun pool ->
    let shared = Bitset.create 64 in
    let _, diags =
      Race.with_check (fun () ->
        Pool.run pool ~n:2 (fun i -> Bitset.add shared i))
    in
    Alcotest.(check bool) "write/write race reported" true
      (has_check "data-race" diags))

let sequential_batches_are_ordered () =
  with_pool ~jobs:2 (fun pool ->
    let shared = Bitset.create 64 in
    let _, diags =
      Race.with_check (fun () ->
        (* same location written by a task in each batch, but the join
           of the first batch orders it before the second: the
           surrogate edge must carry the happens-before across dead
           task threads (n = 2 keeps both batches on the pooled path) *)
        Pool.run pool ~n:2 (fun i -> if i = 0 then Bitset.add shared 1);
        Pool.run pool ~n:2 (fun i -> if i = 0 then Bitset.add shared 2))
    in
    check_no_errors "joined batches do not race" diags)

let disjoint_tasks_are_clean () =
  with_pool ~jobs:4 (fun pool ->
    let sets = Array.init 8 (fun _ -> Bitset.create 32) in
    let _, diags =
      Race.with_check (fun () ->
        Pool.run pool ~n:8 (fun i -> Bitset.add sets.(i) i))
    in
    check_no_errors "disjoint writes are clean" diags)

(* ---- pool scheduling counters ---- *)

let pool_counters () =
  with_pool ~jobs:3 (fun pool ->
    let tele = Telemetry.create () in
    Pool.set_telemetry pool tele;
    Pool.run pool ~n:8 (fun _ -> ());
    Alcotest.(check int) "pool.tasks" 8
      (Telemetry.counter_total tele "pool.tasks");
    let totals = Telemetry.counter_totals tele in
    let is_prefix p s =
      String.length s >= String.length p
      && String.sub s 0 (String.length p) = p
    in
    Alcotest.(check bool) "per-domain task counters present" true
      (List.exists (fun (k, _) -> is_prefix "pool.tasks.d" k) totals);
    Alcotest.(check int) "per-domain counts sum to the batch" 8
      (List.fold_left
         (fun acc (k, v) ->
           if is_prefix "pool.tasks.d" k then acc + v else acc)
         0 totals);
    Alcotest.(check bool) "queue wait accounted" true
      (List.mem_assoc "pool.queue_wait_us" totals))

(* ---- allocation-scale checks ---- *)

let machine = Machine.rt_pc

(* [procs] allocated under [heuristics] as the comparison matrix's task
   DAG on a private width-[jobs] scheduler, under the detector: the
   shared first-pass build read by every classic pipeline at once, the
   pipelines' stage chains running side by side, and every procedure's
   chains beside every other's. *)
let matrix_checked ?(coalesce = true) ~jobs ~edge_cache heuristics procs =
  with_sched ~jobs (fun scheduler ->
    let matrix procs =
      ignore
        (Batch.allocate_matrix ~coalesce ~edge_cache ~scheduler machine
           heuristics procs)
    in
    let _, diags =
      Race.with_check (fun () ->
        (* the cost-blind Matula ablation can legitimately fail to
           converge on the big routines without coalescing, and one
           failing cell aborts the whole matrix: then every procedure
           gets a matrix of its own. The sweep asserts race-cleanliness
           of whatever ran, not allocatability of every combo. *)
        match matrix procs with
        | () -> ()
        | exception Allocator.Allocation_failure _ ->
          List.iter
            (fun p ->
              try matrix [ p ] with Allocator.Allocation_failure _ -> ())
            procs)
    in
    diags)

let widths = if heavy then [ 2; 4; 8 ] else [ 2; 4 ]

let suite_sweep () =
  let programs =
    if heavy then Ra_programs.Suite.all else [ Ra_programs.Suite.quicksort ]
  in
  let heuristics =
    if heavy then [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula ]
    else [ Heuristic.Briggs ]
  in
  let coalesces = if heavy then [ true; false ] else [ true ] in
  List.iter
    (fun program ->
      let procs = Ra_programs.Suite.compile program in
      List.iter
        (fun heuristic ->
          List.iter
            (fun coalesce ->
              List.iter
                (fun edge_cache ->
                  check_no_errors
                    (Printf.sprintf "%s race-clean (cache %b, coalesce %b)"
                       program.Ra_programs.Suite.pname edge_cache coalesce)
                    (matrix_checked ~coalesce ~jobs:4 ~edge_cache
                       [ heuristic ] procs))
                [ true; false ])
            coalesces)
        heuristics)
    programs

let suite_sweep_widths () =
  (* the jobs dimension of the acceptance matrix; heavy mode covers all
     programs and adds width 8, light mode just quicksort *)
  let programs =
    if heavy then Ra_programs.Suite.all else [ Ra_programs.Suite.quicksort ]
  in
  List.iter
    (fun program ->
      let procs = Ra_programs.Suite.compile program in
      List.iter
        (fun jobs ->
          check_no_errors
            (Printf.sprintf "%s race-clean at jobs %d"
               program.Ra_programs.Suite.pname jobs)
            (matrix_checked ~jobs ~edge_cache:true [ Heuristic.Briggs ]
               procs))
        widths)
    programs

(* The comparison matrix's task DAG under the detector: every stage
   task of every pipeline, the shared first-pass build's fan-out, the
   irc pipelines' private builds and irc's no-coalesce fallback tasks,
   all on a width-4 scheduler, every shared access ordered by an edge
   derived from the declared footprints. *)
let procedure_dispatch_clean () =
  let sched = Scheduler.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let procs = Ra_programs.Suite.compile Ra_programs.Suite.quicksort in
      let tele = Telemetry.create () in
      let _, diags =
        Race.with_check (fun () ->
          ignore
            (Batch.allocate_matrix ~scheduler:sched ~tele machine
               [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula;
                 Heuristic.Irc ]
               procs))
      in
      check_no_errors "matrix DAG race-clean" diags;
      Alcotest.(check bool) "the detector saw a fallback task" true
        (Telemetry.counter_total tele "irc.fallback_runs" >= 1))

let prop_random_programs_race_clean =
  QCheck.Test.make
    ~name:"random programs allocate race-clean"
    ~count:(if heavy then 15 else 5)
    QCheck.(
      quad (int_bound 1000000) (int_range 5 30) (oneofl widths) bool)
    (fun (seed, size, jobs, edge_cache) ->
      let src = Progen.generate ~seed ~size in
      let procs = Ra_ir.Codegen.compile_source src in
      let diags =
        matrix_checked ~jobs ~edge_cache [ Heuristic.Briggs ] procs
      in
      if Diagnostic.has_errors diags then
        QCheck.Test.fail_reportf "race check found:\n%s" (error_report diags);
      true)

let suites =
  [ ( "check.effects",
      [ Alcotest.test_case "footprint overlap" `Quick footprint_overlap;
        Alcotest.test_case "footprint conflict" `Quick footprint_conflict ] );
    ( "check.race",
      [ Alcotest.test_case "sibling tasks race" `Quick
          race_between_sibling_tasks;
        Alcotest.test_case "joined batches ordered" `Quick
          sequential_batches_are_ordered;
        Alcotest.test_case "disjoint tasks clean" `Quick
          disjoint_tasks_are_clean;
        Alcotest.test_case "pool counters" `Quick pool_counters;
        Alcotest.test_case "suite sweep race-clean" `Slow suite_sweep;
        Alcotest.test_case "suite sweep across widths" `Slow
          suite_sweep_widths;
        Alcotest.test_case "procedure dispatch race-clean" `Quick
          procedure_dispatch_clean;
        qtest prop_random_programs_race_clean ] ) ]
