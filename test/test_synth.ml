(* Tests for the synthetic workload generators (Ra_programs.Synth,
   Ra_core.Synth_graph) and the speculative parallel coloring engine
   (Ra_core.Par_color): fixed-seed generation is byte-stable across
   runs and pool widths, generated programs are well-formed, and the
   engine's results are bit-identical to the sequential baseline at
   every width. *)

open Ra_core

(* Hex MD5s of fixed-seed generator output, committed so a cross-run
   (or cross-machine) drift in Lcg or the generators shows up as a
   test failure, not as silently different benchmarks. *)
let program_md5 = "92aa2704ec73c88cde2ff81e879ad9f0"
let power_law_digest = "30202ab212dc77fa"
let geometric_digest = "33d687415d9e17a5"

let md5 s = Digest.to_hex (Digest.string s)

let with_pool ~jobs f =
  let pool = Ra_support.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Ra_support.Pool.shutdown pool)
    (fun () -> f pool)

(* ---- program generator ---- *)

let program_bytes_stable () =
  let a = Ra_programs.Synth.program ~seed:7 ~size:30 in
  let b = Ra_programs.Synth.program ~seed:7 ~size:30 in
  Alcotest.(check string) "same seed, same bytes" a b;
  Alcotest.(check string) "committed digest" program_md5 (md5 a);
  (* a different seed must actually change the program *)
  Alcotest.(check bool) "seeds differ" false
    (a = Ra_programs.Synth.program ~seed:8 ~size:30)

let program_stable_across_widths () =
  let reference = Ra_programs.Synth.program ~seed:7 ~size:30 in
  with_pool ~jobs:4 (fun pool ->
    (* generate on every pool worker concurrently: the generator owns
       its rng, so width must not leak into the bytes *)
    let out = Array.make 4 "" in
    Ra_support.Pool.run pool ~n:4 (fun i ->
      out.(i) <- Ra_programs.Synth.program ~seed:7 ~size:30);
    Array.iter
      (fun s -> Alcotest.(check string) "width-independent" reference s)
      out)

let generated_programs_lint () =
  List.iter
    (fun seed ->
      let source = Ra_programs.Synth.program ~seed ~size:35 in
      let procs = Ra_ir.Codegen.compile_source source in
      List.iter
        (fun p ->
          let diags = Ra_check.Lint.run p in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s lints" seed p.Ra_ir.Proc.name)
            false
            (Ra_check.Diagnostic.has_errors diags))
        procs)
    [ 1; 2; 3; 4; 5 ]

let many_compiles_and_lints () =
  let source = Ra_programs.Synth.many ~seed:11 ~size:20 ~routines:3 in
  let procs = Ra_ir.Codegen.compile_source source in
  let names = List.map (fun (p : Ra_ir.Proc.t) -> p.name) procs in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "helper"; "synth0"; "synth1"; "synth2"; "main" ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Ra_ir.Proc.name ^ " lints") false
        (Ra_check.Diagnostic.has_errors (Ra_check.Lint.run p)))
    procs

(* ---- graph generators ---- *)

let make_power_law () =
  Synth_graph.power_law ~seed:42 ~n_nodes:5000 ~n_precolored:32 ~avg_degree:8

let make_geometric () =
  Synth_graph.geometric ~seed:42 ~n_nodes:5000 ~n_precolored:32 ~avg_degree:8

let graph_digests_stable () =
  Alcotest.(check string) "power-law committed digest" power_law_digest
    (Synth_graph.digest (make_power_law ()));
  Alcotest.(check string) "power-law regenerates" power_law_digest
    (Synth_graph.digest (make_power_law ()));
  Alcotest.(check string) "geometric committed digest" geometric_digest
    (Synth_graph.digest (make_geometric ()));
  Alcotest.(check string) "geometric regenerates" geometric_digest
    (Synth_graph.digest (make_geometric ()))

let graph_stable_across_widths () =
  with_pool ~jobs:4 (fun pool ->
    let out = Array.make 4 "" in
    Ra_support.Pool.run pool ~n:4 (fun i ->
      out.(i) <-
        Synth_graph.digest
          (if i mod 2 = 0 then make_power_law () else make_geometric ()));
    Array.iteri
      (fun i d ->
        Alcotest.(check string) "width-independent"
          (if i mod 2 = 0 then power_law_digest else geometric_digest)
          d)
      out)

let to_igraph_agrees () =
  let g = make_power_law () in
  let ig = Synth_graph.to_igraph g in
  Alcotest.(check int) "edge count" (Synth_graph.n_edges g)
    (Igraph.n_edges ig);
  let order = Synth_graph.natural_order g in
  let via_csr = Par_color.select_view_seq (Synth_graph.view g) ~k:8 ~order in
  let via_ig =
    Par_color.select_view_seq (Par_color.view_of_igraph ig) ~k:8 ~order
  in
  Alcotest.(check bool) "same coloring through both views" true
    (via_csr = via_ig)

(* ---- speculative engine vs sequential baseline ---- *)

let engine_identical_at_width jobs () =
  List.iter
    (fun g ->
      let view = Synth_graph.view g in
      let order = Synth_graph.natural_order g in
      List.iter
        (fun k ->
          let base = Par_color.select_view_seq view ~k ~order in
          with_pool ~jobs (fun pool ->
            let stats = ref Par_color.no_stats in
            let spec = Par_color.select_view ~pool ~stats view ~k ~order in
            Alcotest.(check bool)
              (Printf.sprintf "k=%d width=%d identical" k jobs)
              true (spec = base);
            if jobs > 1 then
              Alcotest.(check bool) "engine engaged" true
                !stats.Par_color.engaged))
        [ 4; 8; 16 ])
    [ make_power_law (); make_geometric () ]

let engine_through_heuristics () =
  (* the allocator-facing wrapper: every heuristic's outcome must be
     unchanged when select routes through the engine, spill decisions
     included — verify:true additionally cross-checks inside *)
  let rng = Ra_support.Lcg.create ~seed:5 in
  let g = Igraph.create ~n_nodes:700 ~n_precolored:0 in
  for a = 0 to 699 do
    for _ = 1 to 6 do
      let b = Ra_support.Lcg.int rng 700 in
      if b <> a then Igraph.add_edge g a b
    done
  done;
  let costs = Array.init 700 (fun i -> float_of_int (1 + (i * 7 mod 13))) in
  Par_color.set_min_nodes (Some 1);
  Fun.protect ~finally:(fun () -> Par_color.set_min_nodes None)
    (fun () ->
      with_pool ~jobs:3 (fun pool ->
        List.iter
          (fun h ->
            List.iter
              (fun k ->
                let seq = Heuristic.run h g ~k ~costs in
                let par = Heuristic.run ~pool ~verify:true h g ~k ~costs in
                Alcotest.(check bool)
                  (Printf.sprintf "%s k=%d outcome identical"
                     (Heuristic.name h) k)
                  true (seq = par))
              [ 4; 8 ])
          [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula ]))

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
    Ra_ir.Proc.to_string r.Allocator.proc )

let suite_allocations_unchanged () =
  (* real routines through the full allocator, the engine forced on at
     width 4, with and without the edge cache: every fingerprint must
     match the sequential allocation *)
  let machine = Machine.rt_pc in
  Par_color.set_min_nodes (Some 1);
  Fun.protect ~finally:(fun () -> Par_color.set_min_nodes None) (fun () ->
    List.iter
      (fun (prog : Ra_programs.Suite.program) ->
        List.iter
          (fun (p : Ra_ir.Proc.t) ->
            let base =
              Allocator.allocate
                ~context:(Context.create ~jobs:1 machine)
                machine Heuristic.Briggs p
            in
            List.iter
              (fun edge_cache ->
                let par =
                  Allocator.allocate
                    ~context:(Context.create ~edge_cache ~jobs:4 machine)
                    machine Heuristic.Briggs p
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s cache=%b identical"
                     prog.Ra_programs.Suite.pname p.Ra_ir.Proc.name edge_cache)
                  true
                  (fingerprint par = fingerprint base))
              [ true; false ])
          (Ra_programs.Suite.compile prog))
      [ Ra_programs.Suite.quicksort; Ra_programs.Suite.find "EULER" ])

let footprint_overlap_rejected () =
  (* the engine's worker tasks declare disjoint write footprints; the
     seeded-overlap hook collapses them onto one token, and the
     dispatch-time validator must refuse the batch — proving the
     race-detection layer actually covers these tasks *)
  Ra_check.Effects.install ();
  let g = make_power_law () in
  let view = Synth_graph.view g in
  let order = Synth_graph.natural_order g in
  Par_color.seeded_footprint_overlap := true;
  Fun.protect
    ~finally:(fun () -> Par_color.seeded_footprint_overlap := false)
    (fun () ->
      with_pool ~jobs:2 (fun pool ->
        match Par_color.select_view ~pool view ~k:8 ~order with
        | _ -> Alcotest.fail "overlapping footprints dispatched"
        | exception Ra_check.Effects.Conflict _ -> ()))

let suites =
  [ ( "programs.synth",
      [ Alcotest.test_case "bytes stable" `Quick program_bytes_stable;
        Alcotest.test_case "stable across widths" `Quick
          program_stable_across_widths;
        Alcotest.test_case "generated programs lint" `Quick
          generated_programs_lint;
        Alcotest.test_case "many compiles and lints" `Quick
          many_compiles_and_lints ] );
    ( "core.synth_graph",
      [ Alcotest.test_case "digests stable" `Quick graph_digests_stable;
        Alcotest.test_case "stable across widths" `Quick
          graph_stable_across_widths;
        Alcotest.test_case "to_igraph agrees" `Quick to_igraph_agrees ] );
    ( "core.par_color",
      [ Alcotest.test_case "identical at width 1" `Quick
          (engine_identical_at_width 1);
        Alcotest.test_case "identical at width 2" `Quick
          (engine_identical_at_width 2);
        Alcotest.test_case "identical at width 4" `Quick
          (engine_identical_at_width 4);
        Alcotest.test_case "identical at width 8" `Quick
          (engine_identical_at_width 8);
        Alcotest.test_case "heuristic outcomes unchanged" `Quick
          engine_through_heuristics;
        Alcotest.test_case "suite allocations unchanged" `Slow
          suite_allocations_unchanged;
        Alcotest.test_case "footprint overlap rejected" `Quick
          footprint_overlap_rejected ] ) ]
