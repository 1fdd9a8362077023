(* Tests for the explicit pass pipeline (Ra_core.Pipeline): the
   decomposition of the old monolithic allocate loop must reproduce the
   pre-refactor allocator's results exactly, spill-group emission must
   be deterministic by construction, and every execution mode (jobs,
   edge cache, incrementality) must agree on everything observable. *)

open Ra_ir
open Ra_core

let qtest = QCheck_alcotest.to_alcotest

let machine_k ?(flt = 8) k =
  { (Machine.with_int_regs Machine.rt_pc k) with Machine.flt_regs = flt }

let compile src =
  let procs = Codegen.compile_source src in
  Ra_opt.Opt.optimize_all procs;
  procs

let heuristics = [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula ]

(* the classic three plus the worklist-driven fourth; [heuristics] keeps
   its original order because [Golden_alloc.expected] interleaves on it *)
let all_heuristics = heuristics @ [ Heuristic.Irc ]

(* ---- golden: the whole suite against the pre-refactor seed ---- *)

(* One allocation cell rendered in the format of [Golden_alloc]'s lines:
   passes, live ranges, spill totals, spill cost and coalesced moves, or
   the exact failure message. (Rewritten code is deliberately not part
   of the fingerprint: sorting spill groups by representative web id
   permuted frame-slot numbers.) *)
let golden_line (program : Ra_programs.Suite.program) (proc : Proc.t) h
    ~coalesce = function
  | Ok (r : Allocator.result) ->
    Printf.sprintf
      "%s/%s/%s/coalesce=%b passes=%d live=%d spilled=%d cost=%g moves=%d"
      program.Ra_programs.Suite.pname proc.Proc.name (Heuristic.name h)
      coalesce
      (List.length r.Allocator.passes)
      r.Allocator.live_ranges r.Allocator.total_spilled
      r.Allocator.total_spill_cost r.Allocator.moves_removed
  | Error m ->
    Printf.sprintf "%s/%s/%s/coalesce=%b FAIL %s"
      program.Ra_programs.Suite.pname proc.Proc.name (Heuristic.name h)
      coalesce m

(* Every suite routine x [heuristics] x +/-coalesce, each allocated on a
   fresh context, rendered by [golden_line] in sweep order. *)
let golden_sweep ?verify heuristics =
  let machine = Machine.rt_pc in
  List.concat_map
    (fun (program : Ra_programs.Suite.program) ->
      List.concat_map
        (fun (proc : Proc.t) ->
          List.concat_map
            (fun h ->
              List.map
                (fun coalesce ->
                  let ctx = Context.create machine in
                  golden_line program proc h ~coalesce
                    (match
                       Allocator.allocate ~coalesce ?verify ~context:ctx
                         machine h proc
                     with
                     | r -> Ok r
                     | exception Allocator.Allocation_failure m -> Error m))
                [ true; false ])
            heuristics)
        (Ra_programs.Suite.compile program))
    Ra_programs.Suite.all

(* Lines captured from the seed allocator before the pipeline refactor:
   any drift in passes, live ranges, spill totals, spill cost, coalesced
   moves, or a convergence-failure message is a regression. *)
let golden () =
  Alcotest.(check (list string))
    "every routine x heuristic x coalesce matches the seed allocator"
    Golden_alloc.expected (golden_sweep heuristics)

(* The same sweep for the irc heuristic against its own pinned block.
   Beyond drift detection this encodes two invariants: coalesce=false
   lines equal the briggs block of [Golden_alloc.expected] line for line
   (the worklist engine with no moves degenerates to briggs exactly),
   and no coalesce=true line spills more than its coalesce=false twin
   (conservative coalescing never costs spills). The run is verified
   end to end: RA_VERIFY-grade lint/assignment checks on every cell. *)
let golden_irc () =
  Alcotest.(check (list string))
    "every routine x irc x coalesce matches the pinned outcomes"
    Golden_alloc.expected_irc
    (golden_sweep ~verify:true [ Heuristic.Irc ])

(* ---- spill-group determinism ---- *)

(* [Pipeline.spill_groups] historically materialized groups by
   [Hashtbl.fold], coupling spill-code insertion order (and so frame
   slot numbering) to hash-bucket layout. It must now order groups by
   ascending representative web id, independent of which member ids the
   coloring happened to mark. *)
let spill_groups_sorted () =
  let proc = List.hd (compile Test_context.spilling_src) in
  let machine = machine_k 3 in
  let cfg = Cfg.build proc.Proc.code in
  let webs =
    Ra_analysis.Webs.build proc cfg ~is_spill_vreg:(fun _ -> false)
  in
  let built = Build.build machine proc cfg ~webs ~coalesce:true () in
  let g = Build.graph_of_class built Reg.Int_reg in
  let k = Ra_core.Igraph.n_precolored g in
  let n = Ra_core.Igraph.n_nodes g in
  Alcotest.(check bool) "spilling program has colorable-node surplus" true
    (n - k >= 2);
  let all_nodes = List.init (n - k) (fun i -> k + i) in
  let check nodes =
    let groups = Pipeline.spill_groups built Reg.Int_reg nodes in
    let reps =
      List.map
        (fun group ->
          match group with
          | [] -> Alcotest.fail "empty spill group"
          | w :: _ ->
            let rep = Ra_support.Union_find.find built.Build.alias w in
            (* every member of the group shares the representative *)
            List.iter
              (fun m ->
                Alcotest.(check int) "member in rep's class" rep
                  (Ra_support.Union_find.find built.Build.alias m))
              group;
            rep)
        groups
    in
    Alcotest.(check (list int)) "groups ascend by representative web id"
      (List.sort_uniq Int.compare reps) reps;
    (* same decision handed over in any order yields the same groups *)
    Alcotest.(check (list (list int))) "order of the decision is irrelevant"
      groups
      (Pipeline.spill_groups built Reg.Int_reg (List.rev nodes))
  in
  check all_nodes;
  check (List.filteri (fun i _ -> i mod 2 = 0) all_nodes)

(* ---- the Allocator facade over the pipeline ---- *)

let facade_equals_pipeline () =
  let proc = List.hd (compile Test_context.spilling_src) in
  let machine = machine_k 3 in
  let via_allocator =
    Allocator.allocate ~context:(Context.create machine) machine
      Heuristic.Briggs proc
  in
  let cfgn =
    { Pipeline.coalesce = true;
      max_passes = 32;
      spill_base = Spill_costs.default_base;
      rematerialize = true;
      verify = false }
  in
  let via_pipeline =
    Pipeline.run cfgn ~context:(Context.create machine) machine
      Heuristic.Briggs proc
  in
  Alcotest.(check int) "same spills" via_pipeline.Pipeline.total_spilled
    via_allocator.Allocator.total_spilled;
  Alcotest.(check string) "same code"
    (Proc.to_string via_pipeline.Pipeline.proc)
    (Proc.to_string via_allocator.Allocator.proc);
  (* pass_record is literally the pipeline's record type *)
  Alcotest.(check bool) "same pass records" true
    (via_allocator.Allocator.passes
     |> List.map2
          (fun (a : Pipeline.pass_record) (b : Allocator.pass_record) ->
            { a with Pipeline.build_time = 0.; coalesce_time = 0.;
              simplify_time = 0.; color_time = 0.; spill_time = 0. }
            = { b with Allocator.build_time = 0.; coalesce_time = 0.;
                simplify_time = 0.; color_time = 0.; spill_time = 0. })
          via_pipeline.Pipeline.passes
     |> List.for_all Fun.id);
  Alcotest.(check bool) "stage list covers the documented chain" true
    (List.map fst Pipeline.stages
     = Ra_support.Phase.
         [ Lint; Build; Coalesce; Simplify; Color; Spill_elect; Spill_insert;
           Rewrite; Verify ])

(* ---- cross-mode identity ---- *)

let strip_times (p : Allocator.pass_record) =
  ( p.Allocator.pass_index,
    p.Allocator.webs_initial,
    p.Allocator.webs_coalesced,
    p.Allocator.nodes_int,
    p.Allocator.nodes_flt,
    p.Allocator.edges_int,
    p.Allocator.edges_flt,
    p.Allocator.spilled,
    p.Allocator.spill_cost )

let fingerprint (r : Allocator.result) =
  ( List.map strip_times r.Allocator.passes,
    r.Allocator.live_ranges,
    r.Allocator.total_spilled,
    r.Allocator.total_spill_cost,
    r.Allocator.moves_removed,
    Proc.to_string r.Allocator.proc )

let prop_pipeline_mode_invariant =
  (* The refactored pipeline over every execution mode — the default,
     edge cache off, incrementality off — produces one
     observable allocation per (program, heuristic, coalesce): same
     pass counters, totals, and rewritten code, or the same failure. *)
  QCheck.Test.make
    ~name:
      "pipeline is mode-invariant (edge cache x incremental, all \
       heuristics, with/without coalescing)"
    ~count:10
    QCheck.(triple (int_bound 1000000) (int_range 5 30) (int_range 3 10))
    (fun (seed, size, k) ->
      let k = max 3 k and size = max 1 size in
      let src = Progen.generate ~seed ~size in
      let procs = compile src in
      let machine = machine_k ~flt:4 k in
      List.for_all
        (fun h ->
          let max_passes = if h = Heuristic.Matula then 6 else 32 in
          let contexts =
            [ Context.create machine;
              Context.create ~edge_cache:false machine;
              Context.create ~incremental:false machine ]
          in
          List.for_all
            (fun coalesce ->
              List.for_all
                (fun p ->
                  let alloc ctx =
                    match
                      Allocator.allocate ~coalesce ~max_passes ~context:ctx
                        machine h p
                    with
                    | r -> Some (fingerprint r)
                    | exception Allocator.Allocation_failure _ -> None
                  in
                  match List.map alloc contexts with
                  | [] -> true
                  | first :: rest -> List.for_all (( = ) first) rest)
                procs)
            [ true; false ])
        all_heuristics)

let prop_irc_conservative_never_spills_more =
  (* The conservative-coalescing guarantee, as a property over synthetic
     programs (the suite half is encoded in the irc golden block): for
     the irc heuristic, coalescing on never spills more than coalescing
     off on the same program. The pipeline enforces this globally with
     its no-coalesce fallback rerun (the per-pass move-blind retry alone
     is not enough: Conservative-build merges shift which webs get
     elected, and diverged spill code can cost a spill on a later pass —
     a shrunk generator program found exactly that). Verification is on,
     so every allocation in the sample is also RA_VERIFY-checked end to
     end. *)
  QCheck.Test.make
    ~name:
      "irc with coalescing never spills more than --no-coalesce \
       (synthetics, verified)"
    ~count:10
    QCheck.(triple (int_bound 1000000) (int_range 5 30) (int_range 3 10))
    (fun (seed, size, k) ->
      let k = max 3 k and size = max 1 size in
      let src = Progen.generate ~seed ~size in
      let procs = compile src in
      let machine = machine_k ~flt:4 k in
      List.for_all
        (fun p ->
          let alloc coalesce =
            match
              Allocator.allocate ~coalesce ~verify:true
                ~context:(Context.create machine) machine
                Heuristic.Irc p
            with
            | r -> Some r.Allocator.total_spilled
            | exception Allocator.Allocation_failure _ -> None
          in
          match alloc true, alloc false with
          | Some w, Some wo -> w <= wo
          | (Some _ | None), _ -> true)
        procs)

(* ---- irc's no-coalesce fallback: the join and the cutoff ---- *)

(* A routine whose no-coalesce rerun spills fewer webs (10) than the
   coalesced chain (11), so the join keeps the rerun. Whichever side
   arrives second decides, so every driver and width gives the same
   allocation: exactly the [~coalesce:false] one. *)
let kept_rerun_same_on_every_driver () =
  let machine = machine_k ~flt:4 6 in
  let main =
    List.find
      (fun (p : Proc.t) -> p.Proc.name = "main")
      (compile (Ra_programs.Synth.program ~seed:131 ~size:6))
  in
  let allocate ~coalesce tele =
    Allocator.allocate ~coalesce
      ~context:(Context.create ~tele machine)
      machine Heuristic.Irc main
  in
  let check_counters driver tele =
    Alcotest.(check (pair int int))
      (driver ^ ": one fallback run, kept")
      (1, 1)
      ( Ra_support.Telemetry.counter_total tele "irc.fallback_runs",
        Ra_support.Telemetry.counter_total tele "irc.fallback_kept" )
  in
  let tele = Ra_support.Telemetry.create () in
  let inline = fingerprint (allocate ~coalesce:true tele) in
  check_counters "inline" tele;
  Alcotest.(check bool) "the kept rerun is the no-coalesce allocation" true
    (inline
     = fingerprint (allocate ~coalesce:false (Ra_support.Telemetry.create ())));
  List.iter
    (fun jobs ->
      let sched = Ra_support.Scheduler.create ~jobs in
      Fun.protect
        ~finally:(fun () -> Ra_support.Scheduler.shutdown sched)
        (fun () ->
          let tele = Ra_support.Telemetry.create () in
          match
            Batch.allocate_matrix ~scheduler:sched ~tele machine
              [ Heuristic.Irc ] [ main ]
          with
          | [ [ r ] ] ->
            let driver = Printf.sprintf "DAG at width %d" jobs in
            Alcotest.(check bool) (driver ^ " equals inline") true
              (fingerprint r = inline);
            check_counters driver tele
          | _ -> Alcotest.fail "one heuristic x one routine"))
    [ 1; 2; 4 ]

(* SVD's svd spills under irc, and its rerun reaches the coalesced total
   in its own pass 1, so the cutoff abandons it there: the passes the
   sink counts fall short of a full coalesced allocation plus a full
   no-coalesce one. Counted through the inline driver only — in the DAG
   where the cutoff lands depends on when the coalesced chain finishes. *)
let abandoned_rerun_stops_early () =
  let machine = Machine.rt_pc in
  let svd =
    List.find
      (fun (p : Proc.t) -> p.Proc.name = "svd")
      (Ra_programs.Suite.compile (Ra_programs.Suite.find "SVD"))
  in
  let allocate ~coalesce tele =
    Allocator.allocate ~coalesce
      ~context:(Context.create ~tele machine)
      machine Heuristic.Irc svd
  in
  let tele = Ra_support.Telemetry.create () in
  let coalesced = allocate ~coalesce:true tele in
  let off = allocate ~coalesce:false (Ra_support.Telemetry.create ()) in
  let counter = Ra_support.Telemetry.counter_total tele in
  Alcotest.(check (pair int int)) "one fallback run, not kept" (1, 0)
    (counter "irc.fallback_runs", counter "irc.fallback_kept");
  Alcotest.(check bool) "the coalesced outcome spills no more" true
    (coalesced.Allocator.total_spilled <= off.Allocator.total_spilled);
  let full =
    List.length coalesced.Allocator.passes + List.length off.Allocator.passes
  in
  Alcotest.(check bool)
    (Printf.sprintf "passes counted (%d) < coalesced + no-coalesce (%d)"
       (counter "alloc.passes") full)
    true
    (counter "alloc.passes" < full)

(* The one (routine, heuristic) cell of the benchmark suite that cannot
   allocate: cost-blind Matula on EULER's euler_main. Smallest-last
   never consults spill costs, so from pass 2 on it keeps electing the
   unspillable spill temporaries pass 1 introduced — the degradation
   §2.3 of the paper warns a cost-blind order invites. This pins the
   failure down as *expected* (the bench probe excludes the routine and
   records this reason): if Matula ever learns to allocate euler_main
   the test fails and the exclusion should be deleted, and if the
   diagnostic loses its Matula hint the message check below catches
   it. The cost-aware heuristics must keep allocating the same routine. *)
let matula_euler_main_expected_failure () =
  let machine = Machine.rt_pc in
  let euler = Ra_programs.Suite.find "EULER" in
  let proc =
    List.find
      (fun (p : Proc.t) -> p.name = "euler_main")
      (Ra_programs.Suite.compile euler)
  in
  List.iter
    (fun h ->
      match
        Allocator.allocate ~context:(Context.create machine) machine
          h proc
      with
      | r ->
        Alcotest.(check string)
          (Heuristic.name h ^ " allocates euler_main")
          "euler_main" r.Allocator.proc.Proc.name
      | exception Pipeline.Allocation_failure m ->
        Alcotest.failf "%s unexpectedly failed on euler_main: %s"
          (Heuristic.name h) m)
    [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Irc ];
  match
    Allocator.allocate ~context:(Context.create machine) machine
      Heuristic.Matula proc
  with
  | _ -> Alcotest.fail "matula now allocates euler_main: drop this exclusion"
  | exception Pipeline.Allocation_failure m ->
    let contains_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the routine" true
      (contains_sub m "euler_main");
    Alcotest.(check bool) "diagnostic explains the cost-blind order" true
      (contains_sub m "matula" && contains_sub m "unspillable")

let suites =
  [ ( "core.pipeline",
      [ Alcotest.test_case "golden: suite matches pre-refactor seed" `Slow
          golden;
        Alcotest.test_case "golden: suite x irc matches pinned outcomes"
          `Slow golden_irc;
        Alcotest.test_case "matula x euler_main tracked failure" `Quick
          matula_euler_main_expected_failure;
        Alcotest.test_case "spill groups deterministic by construction"
          `Quick spill_groups_sorted;
        Alcotest.test_case "allocator facade equals pipeline" `Quick
          facade_equals_pipeline;
        Alcotest.test_case "kept fallback rerun: same on every driver"
          `Quick kept_rerun_same_on_every_driver;
        Alcotest.test_case "abandoned fallback rerun stops early" `Quick
          abandoned_rerun_stops_early;
        qtest prop_pipeline_mode_invariant;
        qtest prop_irc_conservative_never_spills_more ] ) ]
