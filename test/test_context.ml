(* Tests for the persistent allocation context (Ra_core.Context): the
   incremental pipeline — patched CFG, rebuilt webs, worklist-updated
   liveness, replayed interference graphs — must be observably identical
   to building everything from scratch on every pass, for every
   heuristic and ablation. *)

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

(* Everything observable about an allocation except CPU time. *)
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

(* few registers + a loop => several spill passes, the case the
   incremental path exists for *)
let spilling_src =
  {| proc f(a: int, b: int) : int {
       var s: int; var i: int;
       s = 0;
       for i = 1 to a {
         s = s + i * b;
       }
       return s;
     } |}

let multi_proc_src =
  {| proc add(a: float, b: float) : float { return a + b; }
     proc g(n: int) : int {
       var i: int; var s: int;
       s = 0;
       for i = 1 to n { s = s + i; }
       return s;
     }
     proc f(n: int) : float {
       var i: int; var s: float;
       s = 0.0;
       for i = 1 to n {
         s = add(s, float(i));
       }
       return s;
     } |}

let incremental_equals_scratch () =
  let machine = machine_k 3 in
  let p = List.hd (compile spilling_src) in
  List.iter
    (fun h ->
      let inc_ctx = Context.create ~incremental:true machine in
      let scr_ctx = Context.create ~incremental:false machine in
      List.iter
        (fun (coalesce, rematerialize) ->
          let alloc ctx =
            fingerprint
              (Allocator.allocate ~coalesce ~rematerialize ~context:ctx
                 machine h p)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s coalesce=%b remat=%b" (Heuristic.name h)
               coalesce rematerialize)
            true
            (alloc inc_ctx = alloc scr_ctx))
        [ (true, true); (true, false); (false, true); (false, false) ];
      (* the comparison is only meaningful if the incremental path ran *)
      Alcotest.(check bool)
        (Printf.sprintf "%s exercised the incremental path" (Heuristic.name h))
        true
        ((Context.stats inc_ctx).Context.incremental_builds > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s scratch context never patched" (Heuristic.name h))
        0
        (Context.stats scr_ctx).Context.incremental_builds)
    heuristics

let warm_context_across_procedures () =
  (* one context reused across a whole program (the batch-driver usage)
     gives the same result per procedure as a cold context each time *)
  let machine = machine_k 4 in
  let procs = compile multi_proc_src in
  let warm = Context.create machine in
  List.iter
    (fun (p : Proc.t) ->
      let with_warm =
        fingerprint (Allocator.allocate ~context:warm machine Heuristic.Briggs p)
      in
      let with_cold =
        fingerprint
          (Allocator.allocate
             ~context:(Context.create machine)
             machine Heuristic.Briggs p)
      in
      Alcotest.(check bool) p.Proc.name true (with_warm = with_cold))
    procs

let verify_mode_cross_checks () =
  (* verify:true makes every incremental build race a from-scratch
     reference build; any structural difference raises Divergence *)
  let machine = machine_k 3 in
  let p = List.hd (compile spilling_src) in
  let ctx = Context.create ~incremental:true ~verify:true machine in
  let r = Allocator.allocate ~verify:false ~context:ctx machine Heuristic.Briggs p in
  Alcotest.(check bool) "spilled (multi-pass workload)" true
    (r.Allocator.total_spilled > 0);
  let stats = Context.stats ctx in
  Alcotest.(check bool) "incremental builds happened" true
    (stats.Context.incremental_builds > 0);
  Alcotest.(check int) "every incremental build was cross-checked"
    stats.Context.incremental_builds stats.Context.verified_builds

let escape_hatch_disables_patching () =
  let machine = machine_k 3 in
  let p = List.hd (compile spilling_src) in
  let ctx = Context.create ~incremental:false machine in
  let r = Allocator.allocate ~context:ctx machine Heuristic.Briggs p in
  let stats = Context.stats ctx in
  Alcotest.(check int) "no patched builds" 0 stats.Context.incremental_builds;
  Alcotest.(check bool) "every pass built from scratch" true
    (stats.Context.scratch_builds >= List.length r.Allocator.passes)

let prop_incremental_equals_scratch =
  (* The satellite property: for random programs, every heuristic, with
     and without coalescing, allocation through an incremental context
     is indistinguishable (pass counters, totals, final code) from one
     that rebuilds the world each pass. Small k forces the multi-pass
     spilling that the incremental path actually serves. *)
  QCheck.Test.make
    ~name:
      "incremental context reproduces from-scratch allocation exactly \
       (all heuristics, with/without coalescing)"
    ~count:15
    QCheck.(triple (int_bound 1000000) (int_range 5 30) (int_range 3 10))
    (fun (seed, size, k) ->
      let k = max 3 k and size = max 1 size in
      let src = Progen.generate ~seed ~size in
      let procs = compile src in
      let machine = machine_k ~flt:4 k in
      List.for_all
        (fun h ->
          (* cost-blind Matula may legitimately fail to converge; both
             modes must then fail on the same pass *)
          let max_passes = if h = Heuristic.Matula then 6 else 32 in
          let inc_ctx = Context.create ~incremental:true machine in
          let scr_ctx = Context.create ~incremental:false machine in
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
                  alloc inc_ctx = alloc scr_ctx)
                procs)
            [ true; false ])
        heuristics)

let edge_cache_reused_across_passes () =
  (* a multi-pass spilling allocation through a cache-backed context must
     replay clean blocks from the cache on every pass after the first —
     and still reproduce the uncached result exactly. Irc's Conservative
     builds read it in each pass's round-0 scan; the aggressive
     heuristics query their merging rounds and scan once, uncached. *)
  let machine = machine_k 3 in
  let p = List.hd (compile spilling_src) in
  let cac_ctx = Context.create ~incremental:true ~edge_cache:true machine in
  let scr_ctx = Context.create ~incremental:false ~edge_cache:false machine in
  Alcotest.(check bool) "cache-backed context reports enabled" true
    (Context.edge_cache_enabled cac_ctx);
  Alcotest.(check bool) "uncached context reports disabled" false
    (Context.edge_cache_enabled scr_ctx);
  let cac = Allocator.allocate ~context:cac_ctx machine Heuristic.Irc p in
  let scr = Allocator.allocate ~context:scr_ctx machine Heuristic.Irc p in
  Alcotest.(check bool) "multi-pass program" true
    (List.length cac.Allocator.passes >= 2);
  Alcotest.(check bool) "identical to uncached" true
    (fingerprint cac = fingerprint scr);
  List.iteri
    (fun i (pr : Allocator.pass_record) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "pass %d replays some blocks from the cache" (i + 1))
          true
          (pr.Allocator.cache_hits > 0))
    cac.Allocator.passes;
  List.iter
    (fun (pr : Allocator.pass_record) ->
      Alcotest.(check int)
        "uncached passes never touch a cache" 0
        (pr.Allocator.cache_hits + pr.Allocator.cache_misses))
    scr.Allocator.passes

let prop_edge_cache_equals_scratch =
  (* The tentpole property: for random programs — hence random
     coalescing-round and spill-pass sequences — allocation through a
     cache-backed context is indistinguishable from a from-scratch
     context, for every heuristic,
     with and without coalescing. Small k forces the multi-pass spilling
     that exercises the cross-pass remap; [verify] additionally
     cross-checks every cached round in-flight against a reference
     rescan, so a silent cache corruption fails the trial even where the
     end state happens to agree. *)
  QCheck.Test.make
    ~name:
      "edge-cache-backed context reproduces from-scratch allocation \
       exactly (all heuristics, with/without coalescing)"
    ~count:12
    QCheck.(triple (int_bound 1000000) (int_range 5 30) (int_range 3 10))
    (fun (seed, size, k) ->
      let k = max 3 k and size = max 1 size in
      let src = Progen.generate ~seed ~size in
      let procs = compile src in
      let machine = machine_k ~flt:4 k in
      List.for_all
        (fun h ->
          let max_passes = if h = Heuristic.Matula then 6 else 32 in
          let scr_ctx =
            Context.create ~incremental:false ~edge_cache:false machine
          in
          let cac_ctx =
            Context.create ~incremental:true ~edge_cache:true ~verify:true
              machine
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
                  alloc cac_ctx = alloc scr_ctx)
                procs)
            [ true; false ])
        heuristics)

let suites =
  [ ( "core.context",
      [ Alcotest.test_case "incremental equals scratch" `Quick
          incremental_equals_scratch;
        Alcotest.test_case "warm context across procedures" `Quick
          warm_context_across_procedures;
        Alcotest.test_case "verify mode cross-checks" `Quick
          verify_mode_cross_checks;
        Alcotest.test_case "escape hatch disables patching" `Quick
          escape_hatch_disables_patching;
        Alcotest.test_case "edge cache reused across passes" `Quick
          edge_cache_reused_across_passes;
        qtest prop_incremental_equals_scratch;
        qtest prop_edge_cache_equals_scratch ] ) ]
