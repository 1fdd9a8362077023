(* Tests for the optimizer passes: local CSE, LICM, DCE, aliasing. *)

open Ra_ir

let qtest = QCheck_alcotest.to_alcotest

let compile_one src =
  List.hd (Codegen.compile_source src)

let count_kind pred (p : Proc.t) =
  Array.fold_left
    (fun acc (nd : Proc.node) -> if pred nd.Proc.ins then acc + 1 else acc)
    0 p.Proc.code

let is_load = function Instr.Load _ -> true | _ -> false

let run_main ?(entry = "f") procs args =
  Ra_vm.Exec.run ~procs ~entry ~args ()

(* ---- alias analysis ---- *)

let alias_distinct_params () =
  let p =
    compile_one "proc f(a: array float, b: array float) : float { return a[1] + b[1]; }"
  in
  let alias = Ra_opt.Alias.compute p in
  (match p.Proc.args with
   | [ ra; rb ] ->
     Alcotest.(check bool) "params do not alias" false
       (Ra_opt.Alias.may_alias alias ra rb);
     Alcotest.(check bool) "self aliases" true
       (Ra_opt.Alias.may_alias alias ra ra)
   | _ -> Alcotest.fail "two args expected")

let alias_alloc_vs_param () =
  let p =
    compile_one
      "proc f(a: array float) : float { var b: array float[4]; b[1] = a[1]; return b[1]; }"
  in
  let alias = Ra_opt.Alias.compute p in
  let alloc_reg = ref None in
  Array.iter
    (fun (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Alloc (d, _, _, _) -> alloc_reg := Some d
      | _ -> ())
    p.Proc.code;
  (match p.Proc.args, !alloc_reg with
   | [ ra ], Some rb ->
     Alcotest.(check bool) "fresh allocation does not alias a parameter"
       false
       (Ra_opt.Alias.may_alias alias ra rb)
   | _ -> Alcotest.fail "shape")

(* ---- local CSE ---- *)

let cse_rewrites_duplicates () =
  let p =
    compile_one
      {| proc f(a: int, b: int) : int {
           var x: int; var y: int;
           x = (a + b) * (a + b);
           y = (a + b) * (a + b);
           return x + y;
         } |}
  in
  let rewrites = Ra_opt.Local_cse.run p in
  Alcotest.(check bool) "several redundancies found" true (rewrites >= 3)

let cse_load_reuse_and_kill () =
  (* two loads of a[i] collapse; a store to a kills the availability *)
  let p =
    compile_one
      {| proc f(a: array float, i: int) : float {
           var x: float; var y: float; var z: float;
           x = a[i];
           y = a[i];
           a[i] = x + 1.0;
           z = a[i];
           return x + y + z;
         } |}
  in
  let loads_before = count_kind is_load p in
  let _ = Ra_opt.Local_cse.run p in
  let loads_after = count_kind is_load p in
  (* y's load collapses; z's load is forwarded from the store *)
  Alcotest.(check int) "two loads removed" (loads_before - 2) loads_after

let cse_store_does_not_kill_distinct_array () =
  let p =
    compile_one
      {| proc f(a: array float, b: array float, i: int) : float {
           var x: float; var y: float;
           x = a[i];
           b[i] = 1.0;
           y = a[i];
           return x + y;
         } |}
  in
  let loads_before = count_kind is_load p in
  let _ = Ra_opt.Local_cse.run p in
  Alcotest.(check int) "second a[i] load removed despite b store"
    (loads_before - 1) (count_kind is_load p)

let cse_call_kills_loads () =
  let src =
    {| proc g(a: array float) { a[1] = 9.0; }
       proc f(a: array float) : float {
         var x: float; var y: float;
         x = a[1];
         g(a);
         y = a[1];
         return x + y;
       } |}
  in
  let procs = Codegen.compile_source src in
  let f = List.find (fun (p : Proc.t) -> p.Proc.name = "f") procs in
  let loads_before = count_kind is_load f in
  let _ = Ra_opt.Local_cse.run f in
  Alcotest.(check int) "no load removed across the call" loads_before
    (count_kind is_load f)

(* ---- LICM ---- *)

let licm_hoists_invariant () =
  let p =
    compile_one
      {| proc f(n: int, c: int) : int {
           var i: int; var s: int;
           s = 0;
           for i = 1 to n {
             s = s + (c * 7 + 3);
           }
           return s;
         } |}
  in
  let _ = Ra_opt.Local_cse.run p in
  let hoisted = Ra_opt.Licm.run p in
  Alcotest.(check bool) "invariant arithmetic hoisted" true (hoisted >= 2);
  (* after hoisting, the loop body retains only the accumulation *)
  let out = run_main [ p ] [ Ra_vm.Value.Vint 5; Ra_vm.Value.Vint 2 ] in
  Alcotest.(check bool) "still computes 5*(2*7+3)" true
    (out.Ra_vm.Exec.result = Some (Ra_vm.Value.Vint 85))

let licm_hoists_loads_fortran_rule () =
  (* x[j] is invariant in the i loop and y is a distinct parameter, so
     the load hoists out *)
  let p =
    compile_one
      {| proc f(n: int, x: array float, y: array float, j: int) {
           var i: int;
           for i = 1 to n {
             y[i] = y[i] + x[j];
           }
         } |}
  in
  let _ = Ra_opt.Local_cse.run p in
  let cfg = Cfg.build p.Proc.code in
  let doms = Ra_analysis.Dominators.compute cfg in
  let loops0 = Ra_analysis.Loops.compute cfg doms in
  ignore loops0;
  let _ = Ra_opt.Licm.run p in
  (* the x[j] load must now be at depth 0 *)
  let load_depths = ref [] in
  Array.iter
    (fun (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Load (_, _, _) -> load_depths := nd.Proc.depth :: !load_depths
      | _ -> ())
    p.Proc.code;
  Alcotest.(check bool) "some load hoisted to depth 0" true
    (List.mem 0 !load_depths)

let licm_blocked_by_aliasing_store () =
  (* x[j] cannot hoist when the loop stores into x itself *)
  let p =
    compile_one
      {| proc f(n: int, x: array float, j: int) {
           var i: int;
           for i = 1 to n {
             x[i] = x[i] + x[j];
           }
         } |}
  in
  let _ = Ra_opt.Local_cse.run p in
  let _ = Ra_opt.Licm.run p in
  let load_depths = ref [] in
  Array.iter
    (fun (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Load (_, _, _) -> load_depths := nd.Proc.depth :: !load_depths
      | _ -> ())
    p.Proc.code;
  Alcotest.(check bool) "no load hoisted" true
    (List.for_all (fun d -> d >= 1) !load_depths)

let licm_blocked_by_call () =
  let src =
    {| proc g(x: array float) { x[1] = 0.0; }
       proc f(n: int, x: array float, j: int) : float {
         var i: int; var s: float;
         s = 0.0;
         for i = 1 to n {
           s = s + x[j];
           g(x);
         }
         return s;
       } |}
  in
  let procs = Codegen.compile_source src in
  let f = List.find (fun (p : Proc.t) -> p.Proc.name = "f") procs in
  let _ = Ra_opt.Local_cse.run f in
  let _ = Ra_opt.Licm.run f in
  let bad = ref false in
  Array.iter
    (fun (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Load (_, _, _) when nd.Proc.depth = 0 -> bad := true
      | _ -> ())
    f.Proc.code;
  Alcotest.(check bool) "loads stay inside the loop" false !bad

let licm_never_hoists_division () =
  let p =
    compile_one
      {| proc f(n: int, a: int, b: int) : int {
           var i: int; var s: int;
           s = 0;
           for i = 1 to n {
             s = s + a / b;
           }
           return s;
         } |}
  in
  let _ = Ra_opt.Local_cse.run p in
  let _ = Ra_opt.Licm.run p in
  (* with n = 0 and b = 0 the division must not execute *)
  let out =
    run_main [ p ] [ Ra_vm.Value.Vint 0; Ra_vm.Value.Vint 1; Ra_vm.Value.Vint 0 ]
  in
  Alcotest.(check bool) "no trap introduced" true
    (out.Ra_vm.Exec.result = Some (Ra_vm.Value.Vint 0))

(* ---- DCE ---- *)

let dce_removes_dead_code () =
  let p =
    compile_one
      {| proc f(a: int) : int {
           var dead1: int; var dead2: float;
           dead1 = a * 12345;
           dead2 = float(a) * 2.0;
           return a + 1;
         } |}
  in
  let removed = Ra_opt.Dce.run p in
  Alcotest.(check bool) "dead computations removed" true (removed >= 4);
  let out = run_main [ p ] [ Ra_vm.Value.Vint 3 ] in
  Alcotest.(check bool) "result preserved" true
    (out.Ra_vm.Exec.result = Some (Ra_vm.Value.Vint 4))

let dce_keeps_stores_and_calls () =
  let src =
    {| proc g() { print_int(7); }
       proc f(a: array int) : int {
         a[1] = 5;
         g();
         return a[1];
       } |}
  in
  let procs = Codegen.compile_source src in
  let f = List.find (fun (p : Proc.t) -> p.Proc.name = "f") procs in
  let before = Proc.instr_count f in
  let removed = Ra_opt.Dce.run f in
  ignore removed;
  Alcotest.(check bool) "store/call not removable" true
    (Proc.instr_count f
     >= before - 2 (* at most trivially dead temps go *));
  let out =
    Ra_vm.Exec.run ~procs ~entry:"f" ~args:[ Ra_vm.Value.of_int_array [| 0; 0 |] ] ()
  in
  Alcotest.(check (list string)) "call still prints" [ "7" ]
    out.Ra_vm.Exec.output

(* ---- whole-pipeline semantics ---- *)

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves program behavior" ~count:40
    QCheck.(pair (int_bound 1000000) (int_range 5 40))
    (fun (seed, size) ->
      let src = Progen.generate ~seed ~size in
      let reference = Codegen.compile_source src in
      let out_ref = run_main ~entry:"main" reference [] in
      let optimized = Codegen.compile_source src in
      Ra_opt.Opt.optimize_all optimized;
      let out_opt = run_main ~entry:"main" optimized [] in
      (* [compare], not [=]: a NaN checksum must equal itself *)
      compare out_ref.Ra_vm.Exec.result out_opt.Ra_vm.Exec.result = 0
      && out_ref.Ra_vm.Exec.output = out_opt.Ra_vm.Exec.output)

(* Dynamic instruction counts stage by stage: local CSE rewrites one
   instruction into one and DCE only deletes, so neither may add work.
   LICM may: it hoists out of every block of a loop, also from under an
   [if] that might not run, and the hoisted code then runs once per loop
   entry even when that block would not have run. *)
let dynamic_counts src =
  let procs = Codegen.compile_source src in
  let count () =
    (run_main ~entry:"main" procs []).Ra_vm.Exec.instructions
  in
  let stage pass =
    List.iter (fun p -> ignore (pass p)) procs;
    count ()
  in
  let unoptimized = count () in
  let cse = stage Ra_opt.Local_cse.run in
  let licm = stage Ra_opt.Licm.run in
  let cse2 = stage Ra_opt.Local_cse.run in
  let dce = stage Ra_opt.Dce.run in
  unoptimized, cse, licm, cse2, dce

let prop_only_licm_adds_dynamic_instructions =
  QCheck.Test.make
    ~name:"CSE and DCE never increase dynamic instructions" ~count:30
    QCheck.(pair (int_bound 1000000) (int_range 10 40))
    (fun (seed, size) ->
      let unoptimized, cse, licm, cse2, dce =
        dynamic_counts (Progen.generate ~seed ~size)
      in
      cse <= unoptimized && cse2 <= licm && dce <= cse2)

let licm_speculative_increase () =
  (* hoisting out of a conditional block makes this program run more
     instructions than its unoptimized code; DCE recovers most of it *)
  let unoptimized, cse, licm, cse2, dce =
    dynamic_counts (Progen.generate ~seed:433105 ~size:38)
  in
  Alcotest.(check (list int)) "unoptimized, CSE, LICM, CSE, DCE"
    [ 953; 953; 978; 978; 956 ]
    [ unoptimized; cse; licm; cse2; dce ]

(* ---- equivalence with the reference optimizer ---- *)

(* [Opt.optimize] against {!Reference_opt.reference_optimize} on two
   compilations of [src]: the same code (instructions and depths) and
   the same stats, procedure by procedure. *)
let matches_reference src =
  let ours = Codegen.compile_source src in
  let theirs = Codegen.compile_source src in
  List.for_all2
    (fun (p : Proc.t) (q : Proc.t) ->
      let depths (p : Proc.t) =
        Array.map (fun (nd : Proc.node) -> nd.Proc.depth) p.Proc.code
      in
      let stats = Ra_opt.Opt.optimize p in
      let reference = Reference_opt.reference_optimize q in
      stats = reference
      && Proc.to_string p = Proc.to_string q
      && depths p = depths q)
    ours theirs

let gen_unit =
  QCheck.make
    ~print:(fun (many, seed, size) ->
      if many then
        Printf.sprintf "Synth.many ~seed:%d ~size:%d ~routines:%d" seed
          (1 + (size mod 6)) (1 + (size mod 10))
      else Printf.sprintf "Synth.program ~seed:%d ~size:%d" seed size)
    QCheck.Gen.(triple bool (int_bound 1000000) (int_range 5 60))

let prop_optimize_matches_reference =
  QCheck.Test.make ~name:"optimize matches the reference optimizer"
    ~count:40 ~long_factor:20 gen_unit
    (fun (many, seed, size) ->
      matches_reference
        (if many then
           Ra_programs.Synth.many ~seed ~size:(1 + (size mod 6))
             ~routines:(1 + (size mod 10))
         else Progen.generate ~seed ~size))

let suite_matches_reference () =
  List.iter
    (fun (prog : Ra_programs.Suite.program) ->
      Alcotest.(check bool) prog.pname true (matches_reference prog.source))
    Ra_programs.Suite.all

(* Codegen lays every loop out contiguously, so hoisting only shifts
   blocks of loops that contain the hoisted loop, and block-bound slips
   there cannot show. Hand-built IR can interleave two loops: loop C's
   body block C1 sits between loop A's header and A's hoisted code,
   and C (three blocks) is tried after A. In [with_dead_block] A's
   hoisted code comes from an unreachable block, which the hoist
   empties. *)
let licm_interleaved_loops_match_reference () =
  let r = Reg.int in
  let n = r 0 and one = r 1 and i = r 2 and x = r 3 and j = r 4 in
  let u1 = r 5 and u2 = r 6 and u3 = r 7 in
  let mk code =
    let p = Proc.create ~name:"t" ~args:[] ~ret_cls:None in
    p.Proc.code <-
      Array.of_list (List.map (fun ins -> { Proc.ins; depth = 0 }) code);
    p.Proc.next_int <- Proc.max_reg_id p Reg.Int_reg;
    p
  in
  let hoisted_from_a = [ Instr.Li (u1, 1); Instr.Li (u2, 2); Instr.Li (u3, 3) ] in
  let code ~with_dead_block =
    [ Instr.Li (n, 10); Instr.Li (one, 1); Instr.Li (i, 0);
      Instr.Label 1; (* A's header *)
      Instr.Cbr (Instr.Lt, i, n, 3, 4);
      Instr.Label 2; (* C1 *)
      Instr.Li (x, 9);
      Instr.Br 6 ]
    @ (if with_dead_block then hoisted_from_a else [])
    @ [ Instr.Label 3 ] (* A1 *)
    @ (if with_dead_block then [] else hoisted_from_a)
    @ [ Instr.Binop (Instr.Iadd, i, i, one);
        Instr.Br 1;
        Instr.Label 4; (* A's exit, C's preheader *)
        Instr.Li (j, 0);
        Instr.Label 5; (* C's header *)
        Instr.Cbr (Instr.Lt, j, n, 2, 7);
        Instr.Label 6; (* C2 *)
        Instr.Binop (Instr.Iadd, j, j, x);
        Instr.Br 5;
        Instr.Label 7;
        Instr.Ret None ]
  in
  List.iter
    (fun with_dead_block ->
      let p = mk (code ~with_dead_block) and q = mk (code ~with_dead_block) in
      let hoisted = Ra_opt.Licm.run p in
      let reference = Reference_opt.Licm.run q in
      Alcotest.(check int) "hoisted" reference hoisted;
      Alcotest.(check int) "four hoisted" 4 hoisted;
      Alcotest.(check string) "same code" (Proc.to_string q) (Proc.to_string p))
    [ false; true ]

let licm_emptied_block_matches_reference () =
  (* statements after a [return] form an unreachable block that falls
     into the loop body, so it belongs to the natural loop; hoisting all
     three of its instructions empties it, which changes the block
     structure and makes LICM re-analyse the procedure *)
  let src =
    {| proc f(n: int, c: int) : int {
         var i: int; var s: int; var x: int;
         s = 0;
         for i = 1 to n {
           if (i > c) { s = s + c * 3; } else { return s; x = c * 7; }
         }
         return s;
       } |}
  in
  Alcotest.(check bool) "same code as the reference" true
    (matches_reference src);
  let p = compile_one src in
  let _ = Ra_opt.Opt.optimize p in
  let out = run_main [ p ] [ Ra_vm.Value.Vint 5; Ra_vm.Value.Vint 2 ] in
  Alcotest.(check bool) "still computes 2 * 0" true
    (out.Ra_vm.Exec.result = Some (Ra_vm.Value.Vint 0))

let suites =
  [ ( "opt.alias",
      [ Alcotest.test_case "distinct params" `Quick alias_distinct_params;
        Alcotest.test_case "alloc vs param" `Quick alias_alloc_vs_param ] );
    ( "opt.cse",
      [ Alcotest.test_case "rewrites duplicates" `Quick cse_rewrites_duplicates;
        Alcotest.test_case "load reuse and kill" `Quick cse_load_reuse_and_kill;
        Alcotest.test_case "store to distinct array" `Quick
          cse_store_does_not_kill_distinct_array;
        Alcotest.test_case "call kills loads" `Quick cse_call_kills_loads ] );
    ( "opt.licm",
      [ Alcotest.test_case "hoists invariant" `Quick licm_hoists_invariant;
        Alcotest.test_case "hoists loads (fortran rule)" `Quick
          licm_hoists_loads_fortran_rule;
        Alcotest.test_case "blocked by aliasing store" `Quick
          licm_blocked_by_aliasing_store;
        Alcotest.test_case "blocked by call" `Quick licm_blocked_by_call;
        Alcotest.test_case "never hoists division" `Quick
          licm_never_hoists_division;
        Alcotest.test_case "speculative increase (433105, 38)" `Quick
          licm_speculative_increase ] );
    ( "opt.dce",
      [ Alcotest.test_case "removes dead code" `Quick dce_removes_dead_code;
        Alcotest.test_case "keeps stores and calls" `Quick
          dce_keeps_stores_and_calls ] );
    ( "opt.pipeline",
      [ qtest prop_optimize_preserves_semantics;
        qtest prop_only_licm_adds_dynamic_instructions ] );
    ( "opt.reference",
      [ Alcotest.test_case "suite procedures" `Quick suite_matches_reference;
        Alcotest.test_case "emptied block" `Quick
          licm_emptied_block_matches_reference;
        Alcotest.test_case "interleaved loops" `Quick
          licm_interleaved_loops_match_reference;
        qtest prop_optimize_matches_reference ] ) ]
