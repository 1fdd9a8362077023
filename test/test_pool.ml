(* Unit tests for the domain pool (Ra_support.Pool): every index runs
   exactly once, exceptions propagate to the submitter, batches can
   nest, and one pool serves many batches. *)

open Ra_support

exception Boom of int

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* [List.map f xs] with one pool task per element, each writing its own
   slot: the result is in list order whatever order the tasks ran in. *)
let map_list pool f xs =
  let arr = Array.of_list xs in
  let out = Array.make (Array.length arr) None in
  Pool.run pool ~n:(Array.length arr) (fun i -> out.(i) <- Some (f arr.(i)));
  Array.to_list (Array.map Option.get out)

let covers_every_index_once () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
        let n = 100 in
        let hits = Array.make n 0 in
        (* racy increments would only ever lose counts, never invent
           them; checking for exactly 1 per index still needs each index
           to have run at least once *)
        let m = Mutex.create () in
        Pool.run pool ~n (fun i ->
          Mutex.lock m;
          hits.(i) <- hits.(i) + 1;
          Mutex.unlock m);
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: each index exactly once" jobs)
          true
          (Array.for_all (fun c -> c = 1) hits)))
    [ 1; 2; 4; 8 ]

let empty_and_singleton_batches () =
  with_pool ~jobs:4 (fun pool ->
    Pool.run pool ~n:0 (fun _ -> Alcotest.fail "n=0 ran a task");
    let ran = ref false in
    Pool.run pool ~n:1 (fun i ->
      Alcotest.(check int) "singleton index" 0 i;
      ran := true);
    Alcotest.(check bool) "singleton ran" true !ran;
    Alcotest.(check (list int)) "empty map" [] (map_list pool succ []))

let exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
        match Pool.run pool ~n:20 (fun i -> if i = 7 then raise (Boom i)) with
        | () -> Alcotest.fail "task exception was swallowed"
        | exception Boom 7 -> ()
        | exception Boom i -> Alcotest.failf "wrong payload %d" i))
    [ 1; 4 ];
  (* the pool survives a failed batch *)
  with_pool ~jobs:4 (fun pool ->
    (try Pool.run pool ~n:4 (fun _ -> raise Exit) with Exit -> ());
    Alcotest.(check (list int)) "usable after failure" [ 0; 2; 4 ]
      (map_list pool (fun x -> 2 * x) [ 0; 1; 2 ]))

let nested_batches () =
  with_pool ~jobs:4 (fun pool ->
    let rows =
      map_list pool
        (fun r -> map_list pool (fun c -> (r * 10) + c) [ 0; 1; 2 ])
        [ 0; 1; 2; 3 ]
    in
    Alcotest.(check (list (list int)))
      "nested run from inside a task"
      [ [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] ]
      rows)

let reuse_across_batches () =
  with_pool ~jobs:3 (fun pool ->
    let total = ref 0 in
    let m = Mutex.create () in
    for round = 1 to 50 do
      Pool.run pool ~n:round (fun _ ->
        Mutex.lock m;
        incr total;
        Mutex.unlock m)
    done;
    Alcotest.(check int) "50 sequential batches" (50 * 51 / 2) !total)

let shutdown_rejects_runs () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.run pool ~n:4 (fun _ -> ()) with
  | () -> Alcotest.fail "run succeeded on a shut-down pool"
  | exception Invalid_argument _ -> ()

let jobs_width () =
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () >= 1);
  with_pool ~jobs:5 (fun pool -> Alcotest.(check int) "width" 5 (Pool.jobs pool))

let suites =
  [ ( "support.pool",
      [ Alcotest.test_case "covers every index once" `Quick
          covers_every_index_once;
        Alcotest.test_case "empty and singleton batches" `Quick
          empty_and_singleton_batches;
        Alcotest.test_case "exception propagates" `Quick exception_propagates;
        Alcotest.test_case "nested batches" `Quick nested_batches;
        Alcotest.test_case "reuse across batches" `Quick reuse_across_batches;
        Alcotest.test_case "shutdown rejects runs" `Quick shutdown_rejects_runs;
        Alcotest.test_case "jobs width" `Quick jobs_width ] ) ]
