(* Unit and property tests for the ra_support data structures. *)

open Ra_support

let qtest = QCheck_alcotest.to_alcotest

(* ---- Union_find ---- *)

let uf_singletons () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "classes" 5 (Union_find.count_classes uf);
  for i = 0 to 4 do
    Alcotest.(check int) "self-rep" i (Union_find.find uf i)
  done

let uf_union_basic () =
  let uf = Union_find.create 6 in
  let _ = Union_find.union uf 0 1 in
  let _ = Union_find.union uf 2 3 in
  Alcotest.(check bool) "0~1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "2~3" true (Union_find.same uf 2 3);
  Alcotest.(check bool) "0!~2" false (Union_find.same uf 0 2);
  let _ = Union_find.union uf 1 2 in
  Alcotest.(check bool) "0~3" true (Union_find.same uf 0 3);
  Alcotest.(check int) "classes" 3 (Union_find.count_classes uf)

let uf_union_idempotent () =
  let uf = Union_find.create 3 in
  let r1 = Union_find.union uf 0 1 in
  let r2 = Union_find.union uf 0 1 in
  Alcotest.(check int) "same representative" r1 r2;
  Alcotest.(check int) "classes" 2 (Union_find.count_classes uf)

let uf_classes_partition () =
  let uf = Union_find.create 7 in
  let _ = Union_find.union uf 0 2 in
  let _ = Union_find.union uf 2 4 in
  let _ = Union_find.union uf 1 5 in
  let classes = Union_find.classes uf in
  let all = List.concat_map snd classes |> List.sort compare in
  Alcotest.(check (list int)) "partition covers" [ 0; 1; 2; 3; 4; 5; 6 ] all;
  let sizes = List.map (fun (_, m) -> List.length m) classes |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 1; 2; 3 ] sizes

let uf_snapshot_restore () =
  let uf = Union_find.create 8 in
  let _ = Union_find.union uf 0 1 in
  let _ = Union_find.union uf 2 3 in
  let snap = Union_find.snapshot uf in
  let rep_before = List.init 8 (Union_find.find uf) in
  (* speculative unions on top of the snapshot *)
  let _ = Union_find.union uf 1 2 in
  let _ = Union_find.union uf 4 5 in
  Alcotest.(check bool) "speculative union observable" true
    (Union_find.same uf 0 3);
  Union_find.restore uf snap;
  Alcotest.(check int) "classes rewound" 6 (Union_find.count_classes uf);
  Alcotest.(check bool) "0~1 kept" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "0!~3 again" false (Union_find.same uf 0 3);
  Alcotest.(check bool) "4!~5 again" false (Union_find.same uf 4 5);
  Alcotest.(check (list int)) "representatives stable across rollback"
    rep_before
    (List.init 8 (Union_find.find uf));
  (* the snapshot is reusable: restore is not a one-shot *)
  let _ = Union_find.union uf 6 7 in
  Union_find.restore uf snap;
  Alcotest.(check bool) "6!~7 after second restore" false
    (Union_find.same uf 6 7)

let uf_snapshot_immutable () =
  let uf = Union_find.create 4 in
  let snap = Union_find.snapshot uf in
  let _ = Union_find.union uf 0 1 in
  let _ = Union_find.union uf 1 2 in
  (* path-compress through finds, then mutate more: the snapshot must
     still describe the all-singletons state *)
  ignore (Union_find.find uf 2);
  Union_find.restore uf snap;
  Alcotest.(check int) "all singletons again" 4
    (Union_find.count_classes uf);
  Alcotest.(check bool) "size mismatch rejected" true
    (match Union_find.restore (Union_find.create 5) snap with
     | () -> false
     | exception Invalid_argument _ -> true)

let uf_prop_snapshot_roundtrip =
  QCheck.Test.make
    ~name:"union_find snapshot/restore rewinds any speculative unions"
    ~count:200
    QCheck.(
      triple (int_bound 30)
        (list (pair (int_bound 30) (int_bound 30)))
        (list (pair (int_bound 30) (int_bound 30))))
    (fun (extra, committed, speculative) ->
      let n = 31 + extra in
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) committed;
      let snap = Union_find.snapshot uf in
      let before = List.init n (Union_find.find uf) in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) speculative;
      Union_find.restore uf snap;
      List.init n (Union_find.find uf) = before)

let uf_prop_transitive =
  QCheck.Test.make ~name:"union_find transitivity under random unions"
    ~count:200
    QCheck.(pair (int_bound 30) (list (pair (int_bound 30) (int_bound 30))))
    (fun (extra, pairs) ->
      let n = 31 + extra in
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* find is stable and same is an equivalence *)
      List.for_all
        (fun (a, b) ->
          Union_find.same uf a b
          && Union_find.find uf a = Union_find.find uf b)
        pairs)

(* ---- Bit_matrix ---- *)

let bm_basic () =
  let m = Bit_matrix.create 10 in
  Alcotest.(check bool) "empty" false (Bit_matrix.mem m 3 7);
  Bit_matrix.set m 3 7;
  Alcotest.(check bool) "set" true (Bit_matrix.mem m 3 7);
  Alcotest.(check bool) "symmetric" true (Bit_matrix.mem m 7 3);
  Alcotest.(check int) "count" 1 (Bit_matrix.count m);
  Bit_matrix.set m 7 3;
  Alcotest.(check int) "count dedups" 1 (Bit_matrix.count m);
  Bit_matrix.clear m 7 3;
  Alcotest.(check bool) "cleared" false (Bit_matrix.mem m 3 7);
  Alcotest.(check int) "count zero" 0 (Bit_matrix.count m)

let bm_diagonal_and_bounds () =
  let m = Bit_matrix.create 4 in
  Bit_matrix.set m 2 2;
  Alcotest.(check bool) "diagonal storable" true (Bit_matrix.mem m 2 2);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Bit_matrix: index out of bounds") (fun () ->
      ignore (Bit_matrix.mem m 0 4))

let bm_reset () =
  let m = Bit_matrix.create 20 in
  for i = 0 to 19 do
    for j = 0 to i - 1 do
      Bit_matrix.set m i j
    done
  done;
  Alcotest.(check int) "full below diagonal" (20 * 19 / 2) (Bit_matrix.count m);
  Bit_matrix.reset m;
  Alcotest.(check int) "reset" 0 (Bit_matrix.count m)

let bm_resize_reuses () =
  let m = Bit_matrix.create 4 in
  Bit_matrix.set m 1 3;
  Bit_matrix.resize m 64;
  Alcotest.(check int) "grown and emptied" 0 (Bit_matrix.count m);
  Alcotest.(check int) "dimension" 64 (Bit_matrix.dimension m);
  Alcotest.(check bool) "old pair gone" false (Bit_matrix.mem m 1 3);
  Bit_matrix.set m 63 0;
  Alcotest.(check bool) "new extremes" true (Bit_matrix.mem m 0 63);
  Alcotest.check_raises "new bound enforced"
    (Invalid_argument "Bit_matrix: index out of bounds") (fun () ->
      ignore (Bit_matrix.mem m 0 64));
  (* shrink: buffer is reused, contents must still be emptied *)
  Bit_matrix.resize m 3;
  Alcotest.(check int) "shrunk and emptied" 0 (Bit_matrix.count m);
  Alcotest.(check int) "small dimension" 3 (Bit_matrix.dimension m);
  Bit_matrix.set m 2 1;
  Alcotest.(check int) "usable after shrink" 1 (Bit_matrix.count m);
  Alcotest.check_raises "small bound enforced"
    (Invalid_argument "Bit_matrix: index out of bounds") (fun () ->
      ignore (Bit_matrix.mem m 0 3))

(* The sparse reset only clears byte ranges of rows touched since the
   last reset; a stray bit surviving in an untouched row's range would
   corrupt the next block's scan. Exercise both the sparse path (few
   touched rows in a big matrix) and the flat-fill fallback. *)
let bm_sparse_reset () =
  let m = Bit_matrix.create 512 in
  Alcotest.(check int) "no rows touched" 0 (Bit_matrix.touched_rows m);
  Bit_matrix.set m 500 3;
  Bit_matrix.set m 500 7;
  Bit_matrix.set m 2 101;
  Bit_matrix.set m 0 0;
  Alcotest.(check int) "distinct hi rows" 3 (Bit_matrix.touched_rows m);
  Bit_matrix.reset m;
  Alcotest.(check int) "empty after sparse reset" 0 (Bit_matrix.count m);
  Alcotest.(check int) "touched forgotten" 0 (Bit_matrix.touched_rows m);
  (* row-boundary bytes are shared between adjacent rows: clearing row
     hi must not disturb a later-set neighbour from a previous round *)
  Bit_matrix.set m 100 99;
  Bit_matrix.reset m;
  Bit_matrix.set m 101 0;
  Bit_matrix.set m 99 98;
  Alcotest.(check int) "neighbours intact" 2 (Bit_matrix.count m);
  Alcotest.(check bool) "pair (101,0)" true (Bit_matrix.mem m 101 0);
  Alcotest.(check bool) "pair (99,98)" true (Bit_matrix.mem m 99 98);
  (* dense: most rows touched triggers the flat-fill fallback *)
  for i = 1 to 511 do
    Bit_matrix.set m i (i - 1)
  done;
  Bit_matrix.reset m;
  Alcotest.(check int) "empty after dense reset" 0 (Bit_matrix.count m);
  Alcotest.(check int) "dense touched forgotten" 0 (Bit_matrix.touched_rows m)

let bm_prop_sparse_reset_rounds =
  QCheck.Test.make
    ~name:"bit_matrix reset leaves no residue across random rounds" ~count:100
    QCheck.(small_list (small_list (pair (int_bound 63) (int_bound 63))))
    (fun rounds ->
      let m = Bit_matrix.create 64 in
      List.for_all
        (fun pairs ->
          List.iter (fun (i, j) -> Bit_matrix.set m i j) pairs;
          let naive = Hashtbl.create 16 in
          List.iter
            (fun (i, j) -> Hashtbl.replace naive (min i j, max i j) ())
            pairs;
          let agree = ref (Bit_matrix.count m = Hashtbl.length naive) in
          List.iter
            (fun (i, j) -> if not (Bit_matrix.mem m i j) then agree := false)
            pairs;
          Bit_matrix.reset m;
          !agree && Bit_matrix.count m = 0)
        rounds)

let bm_prop_matches_naive =
  QCheck.Test.make ~name:"bit_matrix agrees with a naive set of pairs"
    ~count:200
    QCheck.(list (pair (int_bound 15) (int_bound 15)))
    (fun pairs ->
      let m = Bit_matrix.create 16 in
      let naive = Hashtbl.create 16 in
      List.iter
        (fun (i, j) ->
          Bit_matrix.set m i j;
          Hashtbl.replace naive (min i j, max i j) ())
        pairs;
      let ok = ref true in
      for i = 0 to 15 do
        for j = 0 to 15 do
          let expected = Hashtbl.mem naive (min i j, max i j) in
          if Bit_matrix.mem m i j <> expected then ok := false
        done
      done;
      !ok && Bit_matrix.count m = Hashtbl.length naive)

(* ---- Degree_buckets ---- *)

let db_pop_order () =
  let b = Degree_buckets.create ~max_degree:10 in
  Degree_buckets.add b 100 5;
  Degree_buckets.add b 101 2;
  Degree_buckets.add b 102 8;
  let pop () =
    match Degree_buckets.pop_min b ~hint:0 with
    | Some (n, d) -> n, d
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check (pair int int)) "min first" (101, 2) (pop ());
  Alcotest.(check (pair int int)) "then 5" (100, 5) (pop ());
  Alcotest.(check (pair int int)) "then 8" (102, 8) (pop ());
  Alcotest.(check bool) "empty" true (Degree_buckets.is_empty b)

let db_decrease () =
  let b = Degree_buckets.create ~max_degree:10 in
  Degree_buckets.add b 1 4;
  Degree_buckets.add b 2 3;
  Degree_buckets.decrease b 1;
  Degree_buckets.decrease b 1;
  Alcotest.(check int) "degree moved" 2 (Degree_buckets.degree b 1);
  (match Degree_buckets.pop_min b ~hint:0 with
   | Some (n, d) ->
     Alcotest.(check int) "node 1 now min" 1 n;
     Alcotest.(check int) "at degree 2" 2 d
   | None -> Alcotest.fail "empty");
  Alcotest.(check int) "one left" 1 (Degree_buckets.cardinal b)

let db_hint_overshoot () =
  (* A hint above every occupied bucket must still find the node. *)
  let b = Degree_buckets.create ~max_degree:10 in
  Degree_buckets.add b 7 1;
  (match Degree_buckets.pop_min b ~hint:9 with
   | Some (n, _) -> Alcotest.(check int) "found despite hint" 7 n
   | None -> Alcotest.fail "lost the node")

let db_remove_middle () =
  let b = Degree_buckets.create ~max_degree:5 in
  Degree_buckets.add b 1 3;
  Degree_buckets.add b 2 3;
  Degree_buckets.add b 3 3;
  Degree_buckets.remove b 2;
  Alcotest.(check bool) "gone" false (Degree_buckets.mem b 2);
  Alcotest.(check int) "two left" 2 (Degree_buckets.cardinal b);
  let popped = ref [] in
  let rec drain () =
    match Degree_buckets.pop_min b ~hint:0 with
    | Some (n, _) -> popped := n :: !popped; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "rest intact" [ 1; 3 ]
    (List.sort compare !popped)

let db_duplicate_add () =
  let b = Degree_buckets.create ~max_degree:5 in
  Degree_buckets.add b 1 2;
  Alcotest.check_raises "dup add"
    (Invalid_argument "Degree_buckets.add: node already present") (fun () ->
      Degree_buckets.add b 1 3)

let db_reset_reuses () =
  let b = Degree_buckets.create ~max_degree:5 in
  Degree_buckets.add b 1 2;
  Degree_buckets.add b 2 5;
  Degree_buckets.reset b ~max_degree:12;
  Alcotest.(check bool) "emptied" true (Degree_buckets.is_empty b);
  Alcotest.(check bool) "old node forgotten" false (Degree_buckets.mem b 1);
  (* the retargeted range is usable, including the new top degree *)
  Degree_buckets.add b 1 12;
  Degree_buckets.add b 3 0;
  Alcotest.(check int) "two nodes" 2 (Degree_buckets.cardinal b);
  (match Degree_buckets.pop_min b ~hint:0 with
   | Some (n, d) ->
     Alcotest.(check (pair int int)) "min after reset" (3, 0) (n, d)
   | None -> Alcotest.fail "empty after reset+add");
  (* shrink back down; a node may be re-added at a previously used degree *)
  Degree_buckets.reset b ~max_degree:3;
  Alcotest.(check bool) "emptied again" true (Degree_buckets.is_empty b);
  Degree_buckets.add b 7 3;
  Alcotest.(check int) "degree tracked" 3 (Degree_buckets.degree b 7)

let db_prop_pops_sorted_when_static =
  QCheck.Test.make
    ~name:"degree_buckets pops in nondecreasing degree order (no decreases)"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 20))
    (fun degrees ->
      let b = Degree_buckets.create ~max_degree:20 in
      List.iteri (fun i d -> Degree_buckets.add b i d) degrees;
      let rec drain hint acc =
        match Degree_buckets.pop_min b ~hint with
        | Some (_, d) -> drain (d - 1) (d :: acc)
        | None -> List.rev acc
      in
      let popped = drain 0 [] in
      popped = List.sort compare degrees)

(* A list model of the buckets: each entry carries the tick at which it
   was last linked, so within one degree the latest link pops first. *)
let db_prop_matches_list_model =
  QCheck.Test.make
    ~name:"degree_buckets pop order (with hints) matches a list model"
    ~count:300
    QCheck.(pair (int_bound 1000000) (int_range 1 120))
    (fun (seed, steps) ->
      let rng = Lcg.create ~seed in
      let max_degree = 1 + Lcg.int rng 12 in
      let b = Degree_buckets.create ~max_degree in
      let model = ref [] (* (node, degree, tick) *) and tick = ref 0 in
      let link node d =
        incr tick;
        model :=
          (node, d, !tick) :: List.filter (fun (v, _, _) -> v <> node) !model
      in
      let model_pop hint =
        let degs = List.map (fun (_, d, _) -> d) !model in
        let at_or_above = List.filter (fun d -> d >= hint) degs in
        let d =
          List.fold_left min max_int
            (if at_or_above <> [] then at_or_above else degs)
        in
        let node, _, _ =
          List.fold_left
            (fun ((_, _, bt) as best) ((_, e, t) as c) ->
              if e = d && t > bt then c else best)
            (-1, -1, -1) !model
        in
        model := List.filter (fun (v, _, _) -> v <> node) !model;
        (node, d)
      in
      let random_member () =
        match !model with
        | [] -> None
        | l ->
          let v, _, _ = List.nth l (Lcg.int rng (List.length l)) in
          Some v
      in
      let ok = ref true in
      for _ = 1 to steps do
        (match Lcg.int rng 5 with
         | 0 | 1 ->
           (* sparse ids exercise on-demand growth *)
           let node = Lcg.int rng 300 in
           if not (Degree_buckets.mem b node) then begin
             let d = Lcg.int rng (max_degree + 1) in
             Degree_buckets.add b node d;
             link node d
           end
         | 2 -> (
           match random_member () with
           | Some v ->
             let _, d, _ = List.find (fun (u, _, _) -> u = v) !model in
             if d > 0 then begin
               Degree_buckets.decrease b v;
               link v (d - 1)
             end
           | None -> ())
         | 3 -> (
           match random_member () with
           | Some v ->
             Degree_buckets.remove b v;
             model := List.filter (fun (u, _, _) -> u <> v) !model
           | None -> ())
         | _ ->
           let hint = Lcg.int rng (max_degree + 4) - 2 in
           let got = Degree_buckets.pop_min b ~hint in
           let want = if !model = [] then None else Some (model_pop hint) in
           if got <> want then ok := false);
        if Degree_buckets.cardinal b <> List.length !model then ok := false
      done;
      !ok)

(* ---- Bitset ---- *)

let bs_basics () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements sorted" [ 0; 63; 64; 99 ]
    (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.check_raises "bounds" (Invalid_argument "Bitset: out of bounds")
    (fun () -> Bitset.add s 100);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let bs_set_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3 ] in
  let b = Bitset.of_list 20 [ 3; 4 ] in
  let u = Bitset.copy a in
  Alcotest.(check bool) "union grew" true (Bitset.union_into ~into:u b);
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  Alcotest.(check bool) "union fixpoint" false (Bitset.union_into ~into:u b);
  let d = Bitset.copy u in
  Alcotest.(check bool) "diff shrank" true (Bitset.diff_into ~into:d b);
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements d);
  Alcotest.(check bool) "assign change" true (Bitset.assign ~into:d u);
  Alcotest.(check bool) "equal after assign" true (Bitset.equal d u);
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Bitset: universe mismatch") (fun () ->
      ignore (Bitset.union_into ~into:(Bitset.create 10) (Bitset.create 11)))

let bs_reset_reuses () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 9;
  Bitset.reset s 200;
  Alcotest.(check bool) "grown and emptied" true (Bitset.is_empty s);
  Alcotest.(check int) "capacity retargeted" 200 (Bitset.capacity s);
  Bitset.add s 199;
  Alcotest.(check (list int)) "usable at new top" [ 199 ] (Bitset.elements s);
  (* shrink: the backing array is longer than the universe needs; no
     stale high bits may leak into cardinality, equality or iteration *)
  Bitset.reset s 5;
  Alcotest.(check int) "shrunk capacity" 5 (Bitset.capacity s);
  Alcotest.(check bool) "emptied on shrink" true (Bitset.is_empty s);
  Alcotest.(check bool) "equal to a fresh empty set" true
    (Bitset.equal s (Bitset.create 5));
  Bitset.add s 4;
  Alcotest.(check int) "cardinal after shrink" 1 (Bitset.cardinal s);
  Alcotest.check_raises "shrunk bound enforced"
    (Invalid_argument "Bitset: out of bounds") (fun () -> Bitset.add s 5);
  (* bulk ops against a fresh set of the same universe still work *)
  let fresh = Bitset.of_list 5 [ 2; 4 ] in
  Alcotest.(check bool) "union grew" true (Bitset.union_into ~into:s fresh);
  Alcotest.(check (list int)) "union exact" [ 2; 4 ] (Bitset.elements s)

let bs_prop_reset_equals_fresh =
  QCheck.Test.make
    ~name:"a reset bitset behaves exactly like a freshly created one"
    ~count:200
    QCheck.(
      quad (int_range 1 150) (list (int_bound 149)) (int_range 1 150)
        (list (int_bound 149)))
    (fun (n1, xs1, n2, xs2) ->
      let s = Bitset.create n1 in
      List.iter (fun x -> if x < n1 then Bitset.add s x) xs1;
      Bitset.reset s n2;
      let fresh = Bitset.create n2 in
      List.iter
        (fun x ->
          if x < n2 then begin
            Bitset.add s x;
            Bitset.add fresh x
          end)
        xs2;
      Bitset.equal s fresh
      && Bitset.elements s = Bitset.elements fresh
      && Bitset.cardinal s = Bitset.cardinal fresh)

let bs_prop_matches_stdlib_set =
  let module IS = Set.Make (Int) in
  QCheck.Test.make ~name:"bitset ops agree with Set.Make(Int)" ~count:200
    QCheck.(pair (list (int_bound 127)) (list (int_bound 127)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 128 xs and b = Bitset.of_list 128 ys in
      let sa = IS.of_list xs and sb = IS.of_list ys in
      let u = Bitset.copy a in
      ignore (Bitset.union_into ~into:u b);
      let d = Bitset.copy a in
      ignore (Bitset.diff_into ~into:d b);
      Bitset.elements u = IS.elements (IS.union sa sb)
      && Bitset.elements d = IS.elements (IS.diff sa sb)
      && Bitset.cardinal a = IS.cardinal sa)

(* ---- Timer ---- *)

let timer_accumulates () =
  let t = Timer.create () in
  Timer.add t ~phase:Phase.Build 1.0;
  Timer.add t ~phase:Phase.Simplify 0.25;
  Timer.add t ~phase:Phase.Build 0.5;
  Alcotest.(check (float 1e-9)) "build" 1.5
    (Timer.elapsed t ~phase:Phase.Build);
  Alcotest.(check (float 1e-9)) "total" 1.75 (Timer.total t);
  Alcotest.(check (list string)) "order in Phase.all order"
    [ "build"; "simplify" ]
    (List.map (fun (p, _) -> Phase.name p) (Timer.phases t));
  Timer.reset t;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Timer.total t)

let timer_record_returns () =
  let t = Timer.create () in
  let x = Timer.record t ~phase:Phase.Color (fun () -> 41 + 1) in
  Alcotest.(check int) "result passes through" 42 x;
  Alcotest.(check bool) "phase recorded" true
    (List.mem_assoc Phase.Color (Timer.phases t))

let timer_record_reraises () =
  let t = Timer.create () in
  Alcotest.check_raises "exn propagates" Exit (fun () ->
    Timer.record t ~phase:Phase.Spill_insert (fun () ->
      (* spin until the CPU clock ticks: a bare raise can complete
         within one [Sys.time] granule, recording a 0.0 slice that
         [Timer.phases] filters out — the assertion below needs the
         slice to be nonzero, not the raise to be slow *)
      let t0 = Sys.time () in
      while Sys.time () = t0 do () done;
      raise Exit));
  Alcotest.(check bool) "still recorded" true
    (List.mem_assoc Phase.Spill_insert (Timer.phases t))

(* ---- Table ---- *)

let table_renders () =
  let t = Table.create [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (match lines with
   | header :: _rule :: row1 :: _ ->
     Alcotest.(check bool) "header has name" true
       (String.length header >= 4);
     Alcotest.(check string) "first row aligned" "alpha   1" row1
   | _ -> Alcotest.fail "missing lines")

let table_arity_checked () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong arity") (fun () ->
      Table.add_row t [ "only one" ])

(* ---- Lcg ---- *)

let lcg_deterministic () =
  let a = Lcg.create ~seed:42 and b = Lcg.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Lcg.int a 1000) (Lcg.int b 1000)
  done

let lcg_bounds () =
  let r = Lcg.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Lcg.int r 10 in
    if x < 0 || x >= 10 then Alcotest.failf "int out of bounds: %d" x;
    let f = Lcg.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f;
    let y = Lcg.int_in r ~lo:(-5) ~hi:5 in
    if y < -5 || y > 5 then Alcotest.failf "int_in out of bounds: %d" y
  done

let lcg_shuffle_permutes () =
  let r = Lcg.create ~seed:3 in
  let a = Array.init 50 (fun i -> i) in
  Lcg.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let suites =
  [ ( "support.union_find",
      [ Alcotest.test_case "singletons" `Quick uf_singletons;
        Alcotest.test_case "union basic" `Quick uf_union_basic;
        Alcotest.test_case "union idempotent" `Quick uf_union_idempotent;
        Alcotest.test_case "classes partition" `Quick uf_classes_partition;
        Alcotest.test_case "snapshot/restore rewinds speculative unions" `Quick
          uf_snapshot_restore;
        Alcotest.test_case "snapshot immutability and size check" `Quick
          uf_snapshot_immutable;
        qtest uf_prop_transitive;
        qtest uf_prop_snapshot_roundtrip ] );
    ( "support.bit_matrix",
      [ Alcotest.test_case "basic" `Quick bm_basic;
        Alcotest.test_case "diagonal and bounds" `Quick bm_diagonal_and_bounds;
        Alcotest.test_case "reset" `Quick bm_reset;
        Alcotest.test_case "resize reuses" `Quick bm_resize_reuses;
        Alcotest.test_case "sparse reset" `Quick bm_sparse_reset;
        qtest bm_prop_sparse_reset_rounds;
        qtest bm_prop_matches_naive ] );
    ( "support.degree_buckets",
      [ Alcotest.test_case "pop order" `Quick db_pop_order;
        Alcotest.test_case "decrease" `Quick db_decrease;
        Alcotest.test_case "hint overshoot" `Quick db_hint_overshoot;
        Alcotest.test_case "remove middle" `Quick db_remove_middle;
        Alcotest.test_case "duplicate add" `Quick db_duplicate_add;
        Alcotest.test_case "reset reuses" `Quick db_reset_reuses;
        qtest db_prop_pops_sorted_when_static;
        qtest db_prop_matches_list_model ] );
    ( "support.bitset",
      [ Alcotest.test_case "basics" `Quick bs_basics;
        Alcotest.test_case "set ops" `Quick bs_set_ops;
        Alcotest.test_case "reset reuses" `Quick bs_reset_reuses;
        qtest bs_prop_reset_equals_fresh;
        qtest bs_prop_matches_stdlib_set ] );
    ( "support.timer",
      [ Alcotest.test_case "accumulates" `Quick timer_accumulates;
        Alcotest.test_case "record returns" `Quick timer_record_returns;
        Alcotest.test_case "record reraises" `Quick timer_record_reraises ] );
    ( "support.table",
      [ Alcotest.test_case "renders" `Quick table_renders;
        Alcotest.test_case "arity checked" `Quick table_arity_checked ] );
    ( "support.lcg",
      [ Alcotest.test_case "deterministic" `Quick lcg_deterministic;
        Alcotest.test_case "bounds" `Quick lcg_bounds;
        Alcotest.test_case "shuffle permutes" `Quick lcg_shuffle_permutes ] ) ]
