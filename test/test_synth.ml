(* Tests for the synthetic workload generators (Ra_programs.Synth,
   Ra_core.Synth_graph): fixed-seed generation is byte-stable across
   runs and pool widths, generated programs are well-formed, and the
   CSR graphs materialize as the same Igraph. *)

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
  Alcotest.(check int) "node count" (Synth_graph.n_nodes g)
    (Igraph.n_nodes ig);
  Alcotest.(check int) "precolored count" (Synth_graph.n_precolored g)
    (Igraph.n_precolored ig);
  let first_mismatch = ref None in
  for n = Synth_graph.n_nodes g - 1 downto 0 do
    let csr = ref [] in
    Synth_graph.iter_neighbors g n ~f:(fun nb -> csr := nb :: !csr);
    if List.sort compare !csr <> List.sort compare (Igraph.neighbors ig n)
    then first_mismatch := Some n
  done;
  Alcotest.(check (option int)) "first node whose neighbor sets differ" None
    !first_mismatch

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
        Alcotest.test_case "to_igraph agrees" `Quick to_igraph_agrees ] ) ]
