(* Tests for the VM: semantics, errors, the cost model, output. *)

open Ra_vm

let run src entry args =
  let procs = Ra_ir.Codegen.compile_source src in
  Exec.run ~procs ~entry ~args ()

let vint n = Value.Vint n
let vflt f = Value.Vflt f

let check_result name expected out =
  Alcotest.(check bool) name true (out.Exec.result = Some expected)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_error src entry args fragment =
  match run src entry args with
  | exception Exec.Runtime_error msg ->
    if not (contains_substring msg fragment) then
      Alcotest.failf "wrong error %S (wanted %S)" msg fragment
  | _ -> Alcotest.failf "expected a runtime error mentioning %S" fragment

let int_arith () =
  check_result "div truncates toward zero" (vint (-2))
    (run "proc f() : int { return -7 / 3; }" "f" []);
  check_result "mod sign follows dividend" (vint (-1))
    (run "proc f() : int { return mod(-7, 3); }" "f" []);
  check_result "abs" (vint 7) (run "proc f() : int { return abs(-7); }" "f" []);
  check_result "min/max" (vint 12)
    (run "proc f() : int { return min(12, 30) + max(-5, 0); }" "f" [])

let float_arith () =
  check_result "sqrt" (vflt 3.0)
    (run "proc f() : float { return sqrt(9.0); }" "f" []);
  check_result "sign" (vflt (-2.5))
    (run "proc f() : float { return sign(2.5, -1.0); }" "f" []);
  check_result "conversion truncates" (vint (-2))
    (run "proc f() : int { return int(-2.9); }" "f" []);
  check_result "promotion" (vflt 3.5)
    (run "proc f() : float { return 3 + 0.5; }" "f" [])

let aggregates_by_reference () =
  let src =
    {| proc fill(a: array int, v: int) { var i: int; for i = 1 to len(a) { a[i] = v; } }
       proc f() : int {
         var a: array int[5];
         fill(a, 9);
         return a[1] + a[5];
       } |}
  in
  check_result "callee mutations visible" (vint 18) (run src "f" [])

let matrix_column_major () =
  let src =
    {| proc f() : int {
         var m: mat int[3, 2];
         var i: int; var j: int; var c: int;
         c = 0;
         for j = 1 to 2 {
           for i = 1 to 3 {
             c = c + 1;
             m[i, j] = c;
           }
         }
         # m is column-major: rows(m)=3, cols(m)=2
         return m[3, 2] * 100 + rows(m) * 10 + cols(m);
       } |}
  in
  check_result "layout and dims" (vint 632) (run src "f" [])

let runtime_errors () =
  expect_error "proc f(a: array int) : int { return a[0]; }" "f"
    [ Value.of_int_array [| 1; 2 |] ]
    "out of bounds";
  expect_error "proc f(a: array int) : int { return a[3]; }" "f"
    [ Value.of_int_array [| 1; 2 |] ]
    "out of bounds";
  expect_error "proc f(b: int) : int { return 1 / b; }" "f" [ vint 0 ]
    "division by zero";
  expect_error "proc f(x: float) : float { return sqrt(x); }" "f"
    [ vflt (-1.0) ] "sqrt of negative";

  expect_error "proc f(n: int) : int { if (n > 0) { return 1; } }" "f"
    [ vint 0 ] "without a value"

let arity_checked () =
  (match run "proc f(a: int) : int { return a; }" "f" [] with
   | exception Exec.Runtime_error _ -> ()
   | _ -> Alcotest.fail "arity mismatch undetected")

let unknown_procedure_at_runtime () =
  (* the typechecker catches unknown callees in source, so drop the callee
     from the procedure set to exercise the VM-level check *)
  let procs =
    Ra_ir.Codegen.compile_source
      "proc g() { } proc f() { g(); }"
    |> List.filter (fun (p : Ra_ir.Proc.t) -> p.Ra_ir.Proc.name = "f")
  in
  (match Exec.run ~procs ~entry:"f" ~args:[] () with
   | exception Exec.Runtime_error msg ->
     if not (contains_substring msg "unknown procedure") then
       Alcotest.failf "wrong error %S" msg
   | _ -> Alcotest.fail "expected unknown-procedure error")

let fuel_limits () =
  let src = "proc f() { var i: int; i = 0; while (i == 0) { i = 0; } }" in
  let procs = Ra_ir.Codegen.compile_source src in
  (match Exec.run ~fuel:1000 ~procs ~entry:"f" ~args:[] () with
   | exception Exec.Out_of_fuel -> ()
   | _ -> Alcotest.fail "expected Out_of_fuel")

let output_order () =
  let src =
    {| proc f() {
         var i: int;
         for i = 1 to 3 { print_int(i * 11); }
         print_float(2.5);
       } |}
  in
  let out = run src "f" [] in
  Alcotest.(check (list string)) "prints in order"
    [ "11"; "22"; "33"; "2.5" ] out.Exec.output

let cycles_accumulate () =
  let out1 = run "proc f() : int { return 1; }" "f" [] in
  let out2 = run "proc f() : int { return 1 + 2 * 3; }" "f" [] in
  Alcotest.(check bool) "more work costs more cycles" true
    (out2.Exec.cycles > out1.Exec.cycles);
  Alcotest.(check bool) "instructions counted" true
    (out2.Exec.instructions > out1.Exec.instructions)

let memory_costs_more () =
  let reg_src = "proc f(a: int) : int { return a + a; }" in
  let mem_src =
    "proc f(b: array int) : int { return b[1] + b[1]; }"
  in
  let o1 = run reg_src "f" [ vint 1 ] in
  let o2 = run mem_src "f" [ Value.of_int_array [| 1 |] ] in
  Alcotest.(check bool) "loads are slower than registers" true
    (o2.Exec.cycles > o1.Exec.cycles)

let recursion_works () =
  let src =
    {| proc fact(n: int) : int {
         if (n <= 1) { return 1; }
         return n * fact(n - 1);
       } |}
  in
  check_result "recursion with fresh frames" (vint 120)
    (run src "fact" [ vint 5 ])

let value_conversions () =
  Alcotest.(check (array (float 0.0))) "float array round trip"
    [| 1.5; 2.5 |]
    (Value.to_float_array (Value.of_float_array [| 1.5; 2.5 |]));
  Alcotest.(check string) "to_string int" "42" (Value.to_string (vint 42));
  (match Value.make_matrix Ra_ir.Instr.Eflt ~rows:2 ~cols:3 with
   | agg ->
     Alcotest.(check int) "matrix length" 6 (Value.length agg))

(* Allocation tracing is a process-wide environment knob; turning it on
   must never change what a program prints. *)
let tracing_leaves_output_unchanged () =
  let src =
    {| proc f(b: array int) {
         b[1] = 7;
         print_int(b[1]);
       } |}
  in
  let procs = Ra_ir.Codegen.compile_source src in
  let go () =
    (Exec.run ~procs ~entry:"f" ~args:[ Value.of_int_array [| 0 |] ] ())
      .Exec.output
  in
  let plain = go () in
  Alcotest.(check (list string)) "untraced output" [ "7" ] plain;
  let trace_path =
    Filename.concat (Filename.get_temp_dir_name ()) "ra-vm-trace-test.json"
  in
  let old = Sys.getenv_opt "RA_TRACE" in
  Unix.putenv "RA_TRACE" trace_path;
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "RA_TRACE" (Option.value old ~default:""))
      go
  in
  Alcotest.(check (list string)) "RA_TRACE leaves output unchanged" plain
    traced

let suites =
  [ ( "vm.semantics",
      [ Alcotest.test_case "int arithmetic" `Quick int_arith;
        Alcotest.test_case "float arithmetic" `Quick float_arith;
        Alcotest.test_case "aggregates by reference" `Quick
          aggregates_by_reference;
        Alcotest.test_case "matrix column major" `Quick matrix_column_major;
        Alcotest.test_case "recursion" `Quick recursion_works;
        Alcotest.test_case "value conversions" `Quick value_conversions ] );
    ( "vm.errors",
      [ Alcotest.test_case "runtime errors" `Quick runtime_errors;
        Alcotest.test_case "arity checked" `Quick arity_checked;
        Alcotest.test_case "unknown procedure" `Quick unknown_procedure_at_runtime;
        Alcotest.test_case "fuel" `Quick fuel_limits ] );
    ( "vm.costs",
      [ Alcotest.test_case "output order" `Quick output_order;
        Alcotest.test_case "cycles accumulate" `Quick cycles_accumulate;
        Alcotest.test_case "memory costs more" `Quick memory_costs_more ] );
    ( "vm.trace",
      [ Alcotest.test_case "tracing leaves output unchanged" `Quick
          tracing_leaves_output_unchanged ] ) ]
