(* Tests for the interference graph and the coloring heuristics,
   including the paper's Figure 2 and Figure 3 examples, the §2.3
   subset theorem, and Select and the spill election against the
   implementations they replaced. *)

open Ra_core

let qtest = QCheck_alcotest.to_alcotest

(* ---- Igraph ---- *)

let igraph_basics () =
  let g = Igraph.create ~n_nodes:5 ~n_precolored:2 in
  Igraph.add_edge g 0 3;
  Igraph.add_edge g 3 4;
  Igraph.add_edge g 4 3; (* duplicate *)
  Igraph.add_edge g 2 2; (* self loop ignored *)
  Alcotest.(check int) "edges deduplicated" 2 (Igraph.n_edges g);
  Alcotest.(check bool) "interferes" true (Igraph.interferes g 3 0);
  Alcotest.(check bool) "no self edge" false (Igraph.interferes g 2 2);
  Alcotest.(check int) "degree" 2 (Igraph.degree g 3);
  Alcotest.(check (list int)) "neighbors" [ 0; 4 ]
    (List.sort compare (Igraph.neighbors g 3));
  Alcotest.(check bool) "precolored" true (Igraph.is_precolored g 1);
  Alcotest.(check bool) "not precolored" false (Igraph.is_precolored g 2)

let igraph_check_coloring () =
  let g = Igraph.create ~n_nodes:4 ~n_precolored:1 in
  Igraph.add_edge g 1 2;
  let good = [| Some 0; Some 1; Some 2; None |] in
  Alcotest.(check bool) "proper accepted" true
    (Igraph.check_coloring g ~colors:good = None);
  let clash = [| Some 0; Some 1; Some 1; None |] in
  Alcotest.(check bool) "adjacent same color caught" true
    (Igraph.check_coloring g ~colors:clash = Some (1, 2));
  let moved = [| Some 3; Some 1; Some 2; None |] in
  Alcotest.(check bool) "precolored must keep color" true
    (Igraph.check_coloring g ~colors:moved <> None)

(* helpers for pure-graph heuristic tests *)

let graph_of_edges n edges =
  let g = Igraph.create ~n_nodes:n ~n_precolored:0 in
  List.iter (fun (a, b) -> Igraph.add_edge g a b) edges;
  g

let unit_costs n = Array.make n 1.0

(* ---- Figure 2: five nodes, 3-colorable by simplification ---- *)

let figure2_graph () =
  (* a-b, a-c, b-c, b-d, c-d, c-e, d-e : as drawn in the paper *)
  graph_of_edges 5
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3); (2, 4); (3, 4) ]

let fig2_chaitin_three_colors () =
  let g = figure2_graph () in
  (match Heuristic.run Heuristic.Chaitin g ~k:3 ~costs:(unit_costs 5) with
   | Heuristic.Colored colors ->
     Alcotest.(check bool) "proper" true
       (Igraph.check_coloring g ~colors = None)
   | Heuristic.Spill _ -> Alcotest.fail "figure 2 must 3-color")

let fig2_needs_three () =
  (* the triangle a-b-c forces 3 colors: at k=2 every heuristic spills *)
  let g = figure2_graph () in
  (match Heuristic.run Heuristic.Briggs g ~k:2 ~costs:(unit_costs 5) with
   | Heuristic.Spill _ -> ()
   | Heuristic.Colored _ -> Alcotest.fail "a triangle cannot be 2-colored")

(* ---- Figure 3: the diamond (4-cycle) ---- *)

let diamond () = graph_of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]

let fig3_chaitin_spills () =
  (match Heuristic.run Heuristic.Chaitin (diamond ()) ~k:2 ~costs:(unit_costs 4) with
   | Heuristic.Spill marked ->
     Alcotest.(check int) "exactly one node marked" 1 (List.length marked)
   | Heuristic.Colored _ ->
     Alcotest.fail "Chaitin's heuristic gives up on the diamond at k=2")

let fig3_briggs_colors () =
  let g = diamond () in
  (match Heuristic.run Heuristic.Briggs g ~k:2 ~costs:(unit_costs 4) with
   | Heuristic.Colored colors ->
     Alcotest.(check bool) "proper 2-coloring" true
       (Igraph.check_coloring g ~colors = None)
   | Heuristic.Spill _ ->
     Alcotest.fail "optimistic coloring must 2-color the diamond")

let fig3_matula_colors () =
  let g = diamond () in
  (match Heuristic.run Heuristic.Matula g ~k:2 ~costs:(unit_costs 4) with
   | Heuristic.Colored colors ->
     Alcotest.(check bool) "proper" true (Igraph.check_coloring g ~colors = None)
   | Heuristic.Spill _ -> Alcotest.fail "smallest-last must 2-color the diamond")

(* ---- precolored nodes ---- *)

let precolored_respected () =
  (* web 2 interferes with machine registers 0 and 1 of a 3-register
     machine: it must get color 2 *)
  let g = Igraph.create ~n_nodes:4 ~n_precolored:3 in
  Igraph.add_edge g 0 3;
  Igraph.add_edge g 1 3;
  (match Heuristic.run Heuristic.Briggs g ~k:3 ~costs:(Array.make 4 1.0) with
   | Heuristic.Colored colors ->
     Alcotest.(check bool) "forced color" true (colors.(3) = Some 2)
   | Heuristic.Spill _ -> Alcotest.fail "colorable")

let precolored_forces_spill () =
  let g = Igraph.create ~n_nodes:3 ~n_precolored:2 in
  Igraph.add_edge g 0 2;
  Igraph.add_edge g 1 2;
  (match Heuristic.run Heuristic.Briggs g ~k:2 ~costs:(Array.make 3 1.0) with
   | Heuristic.Spill [ 2 ] -> ()
   | Heuristic.Spill _ | Heuristic.Colored _ ->
     Alcotest.fail "node blocked by all machine registers must spill")

(* ---- cost guidance ---- *)

let chaitin_spills_cheapest_ratio () =
  (* K4 at k=2: simplification is immediately blocked; the node with the
     least cost/degree must be marked first *)
  let g = graph_of_edges 4 [ (0,1); (0,2); (0,3); (1,2); (1,3); (2,3) ] in
  let costs = [| 40.0; 10.0; 40.0; 40.0 |] in
  (match Heuristic.run Heuristic.Chaitin g ~k:2 ~costs with
   | Heuristic.Spill (first :: _) ->
     Alcotest.(check int) "cheapest node spilled first" 1 first
   | Heuristic.Spill [] | Heuristic.Colored _ -> Alcotest.fail "must spill")

let briggs_prefers_cheap_spills () =
  let g = graph_of_edges 4 [ (0,1); (0,2); (0,3); (1,2); (1,3); (2,3) ] in
  let costs = [| 40.0; 10.0; 50.0; 60.0 |] in
  (match Heuristic.run Heuristic.Briggs g ~k:2 ~costs with
   | Heuristic.Spill spills ->
     Alcotest.(check bool) "cheap node among the spills" true
       (List.mem 1 spills);
     Alcotest.(check bool) "most expensive survives" true
       (not (List.mem 3 spills))
   | Heuristic.Colored _ -> Alcotest.fail "K4 at k=2 must spill")

let infinite_costs_never_spilled_when_avoidable () =
  let g = graph_of_edges 4 [ (0,1); (0,2); (0,3); (1,2); (1,3); (2,3) ] in
  let costs = [| infinity; 5.0; infinity; 5.0 |] in
  (match Heuristic.run Heuristic.Briggs g ~k:2 ~costs with
   | Heuristic.Spill spills ->
     Alcotest.(check bool) "only finite-cost nodes spilled" true
       (List.for_all (fun n -> costs.(n) <> infinity) spills)
   | Heuristic.Colored _ -> Alcotest.fail "K4 at k=2 must spill")

(* ---- smallest-last ordering ---- *)

let smallest_last_on_path () =
  (* path 0-1-2-3-4: ends have degree 1 and are removed first *)
  let g = graph_of_edges 5 [ (0,1); (1,2); (2,3); (3,4) ] in
  let order = Coloring.smallest_last_order g in
  Alcotest.(check int) "all removed" 5 (List.length order);
  (match order with
   | first :: _ ->
     Alcotest.(check bool) "an endpoint goes first" true
       (first = 0 || first = 4)
   | [] -> Alcotest.fail "empty")

let smallest_last_degeneracy_bound () =
  (* a tree has degeneracy 1: smallest-last + select uses 2 colors *)
  let g = graph_of_edges 7 [ (0,1); (0,2); (1,3); (1,4); (2,5); (2,6) ] in
  let order = Coloring.smallest_last_order g in
  let { Coloring.colors; uncolored } = Coloring.select g ~k:2 ~order in
  Alcotest.(check (list int)) "no uncolored" [] uncolored;
  Alcotest.(check bool) "proper" true (Igraph.check_coloring g ~colors = None)

(* ---- random-graph properties ---- *)

let random_graph seed n density =
  let rng = Ra_support.Lcg.create ~seed in
  let g = Igraph.create ~n_nodes:n ~n_precolored:0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Ra_support.Lcg.int rng 100 < density then Igraph.add_edge g a b
    done
  done;
  g

let graph_arb =
  QCheck.make
    QCheck.Gen.(triple (int_bound 1000000) (int_range 2 40) (int_range 5 60))

let prop_briggs_subset_of_chaitin =
  QCheck.Test.make
    ~name:"Briggs spills a subset of Chaitin's spills (same costs)" ~count:300
    (QCheck.pair graph_arb (QCheck.make QCheck.Gen.(int_range 2 8)))
    (fun ((seed, n, density), k) ->
      let g = random_graph seed n density in
      let costs = Array.init n (fun i -> float_of_int (1 + (i * 7 mod 13))) in
      match
        Heuristic.run Heuristic.Chaitin g ~k ~costs,
        Heuristic.run Heuristic.Briggs g ~k ~costs
      with
      | Heuristic.Colored _, Heuristic.Colored _ -> true
      | Heuristic.Colored _, Heuristic.Spill _ ->
        false (* Briggs must color whenever Chaitin does *)
      | Heuristic.Spill _, Heuristic.Colored _ -> true (* strictly better *)
      | Heuristic.Spill old_spills, Heuristic.Spill new_spills ->
        List.for_all (fun s -> List.mem s old_spills) new_spills)

let prop_colorings_always_proper =
  QCheck.Test.make ~name:"every produced coloring is proper" ~count:300
    (QCheck.pair graph_arb (QCheck.make QCheck.Gen.(int_range 2 8)))
    (fun ((seed, n, density), k) ->
      let g = random_graph seed n density in
      let costs = unit_costs n in
      List.for_all
        (fun h ->
          match Heuristic.run h g ~k ~costs with
          | Heuristic.Colored colors -> Igraph.check_coloring g ~colors = None
          | Heuristic.Spill spills -> spills <> [])
        [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula ])

let prop_matula_colors_low_degeneracy =
  QCheck.Test.make
    ~name:"smallest-last colors any graph with degeneracy < k" ~count:200
    graph_arb
    (fun (seed, n, density) ->
      let g = random_graph seed n density in
      (* compute degeneracy via the smallest-last order itself is circular;
         use the max over the residual min-degree sequence computed naively *)
      let removed = Array.make n false in
      let degeneracy = ref 0 in
      for _ = 1 to n do
        let best = ref (-1) and best_deg = ref max_int in
        for v = 0 to n - 1 do
          if not removed.(v) then begin
            let d =
              List.length
                (List.filter (fun u -> not removed.(u)) (Igraph.neighbors g v))
            in
            if d < !best_deg then begin
              best := v;
              best_deg := d
            end
          end
        done;
        degeneracy := max !degeneracy !best_deg;
        removed.(!best) <- true
      done;
      let k = !degeneracy + 1 in
      match Heuristic.run Heuristic.Matula g ~k ~costs:(unit_costs n) with
      | Heuristic.Colored colors -> Igraph.check_coloring g ~colors = None
      | Heuristic.Spill _ -> false)

let prop_select_respects_order_contract =
  QCheck.Test.make
    ~name:"select colors every degree-< k simplified node" ~count:200
    (QCheck.pair graph_arb (QCheck.make QCheck.Gen.(int_range 2 8)))
    (fun ((seed, n, density), k) ->
      let g = random_graph seed n density in
      let { Coloring.order; marked } =
        Coloring.simplify g ~k ~costs:(unit_costs n)
          ~policy:Coloring.Spill_during_simplify
      in
      let { Coloring.colors; uncolored } = Coloring.select g ~k ~order in
      (* nodes simplified with low degree always color; only the marked
         nodes stay uncolored *)
      uncolored = []
      && List.for_all (fun m -> colors.(m) = None) marked
      && List.for_all (fun o -> colors.(o) <> None) order)

(* ---- Spill election: the heap against the linear scan it replaced ---- *)

(* The linear-scan Simplify the heap replaced, kept as the reference:
   every election rescans all remaining nodes for the minimum
   cost/degree ratio, ties to the lowest id, infinite costs last. *)
let reference_simplify (g : Igraph.t) ~k ~(costs : float array) ~policy =
  let n = Igraph.n_nodes g in
  let removed = Array.make n false in
  let deg = Array.init n (fun i -> Igraph.degree g i) in
  let low = ref [] in
  let in_low = Array.make n false in
  let remaining = ref 0 in
  for i = n - 1 downto Igraph.n_precolored g do
    incr remaining;
    if deg.(i) < k then begin
      low := i :: !low;
      in_low.(i) <- true
    end
  done;
  let rev_order = ref [] in
  let rev_marked = ref [] in
  let remove node =
    removed.(node) <- true;
    decr remaining;
    Igraph.iter_neighbors g node ~f:(fun nb ->
      if (not removed.(nb)) && not (Igraph.is_precolored g nb) then begin
        deg.(nb) <- deg.(nb) - 1;
        if deg.(nb) < k && not in_low.(nb) then begin
          low := nb :: !low;
          in_low.(nb) <- true
        end
      end)
  in
  let pick_spill_candidate () =
    let best = ref (-1) in
    let best_ratio = ref infinity in
    let best_infinite = ref (-1) in
    for i = Igraph.n_precolored g to n - 1 do
      if not removed.(i) then
        if costs.(i) = infinity then begin
          if !best_infinite < 0 then best_infinite := i
        end
        else begin
          let ratio = costs.(i) /. float_of_int (max deg.(i) 1) in
          if ratio < !best_ratio then begin
            best_ratio := ratio;
            best := i
          end
        end
    done;
    if !best >= 0 then !best
    else
      match policy with
      | Coloring.Spill_during_simplify ->
        failwith "Coloring.simplify: unspillable nodes form an uncolorable core"
      | Coloring.Defer_to_select -> !best_infinite
  in
  let rec loop () =
    match !low with
    | node :: rest ->
      low := rest;
      in_low.(node) <- false;
      if not removed.(node) then begin
        rev_order := node :: !rev_order;
        remove node
      end;
      loop ()
    | [] ->
      if !remaining > 0 then begin
        let node = pick_spill_candidate () in
        (match policy with
         | Coloring.Spill_during_simplify -> rev_marked := node :: !rev_marked
         | Coloring.Defer_to_select -> rev_order := node :: !rev_order);
        remove node;
        loop ()
      end
  in
  loop ();
  { Coloring.order = List.rev !rev_order; marked = List.rev !rev_marked }

let policies =
  [ ("chaitin", Coloring.Spill_during_simplify);
    ("briggs", Coloring.Defer_to_select) ]

(* both engines' answer, with the uncolorable-core failure as a value *)
let simplify_outcome f g ~k ~costs ~policy =
  match f g ~k ~costs ~policy with
  | { Coloring.order; marked } -> Ok (order, marked)
  | exception Failure m -> Error m

let same_as_reference g ~k ~costs =
  List.for_all
    (fun (_, policy) ->
      simplify_outcome Coloring.simplify g ~k ~costs ~policy
      = simplify_outcome reference_simplify g ~k ~costs ~policy)
    policies

(* tie-heavy costs: a handful of values, zero and infinity among them *)
let tie_costs rng n =
  let pool = [| 0.; 1.; 2.; 3.; 6.; infinity |] in
  Array.init n (fun _ -> pool.(Ra_support.Lcg.int rng (Array.length pool)))

let prop_simplify_matches_reference =
  QCheck.Test.make
    ~name:"heap-elected simplify equals the scan reference (order, marked)"
    ~count:500
    QCheck.(
      pair
        (triple (int_bound 1000000) (int_range 2 60) (int_range 5 70))
        (pair (int_range 0 4) (int_range 2 8)))
    (fun ((seed, n, density), (pre, k)) ->
      let pre = min pre (n - 1) in
      let rng = Ra_support.Lcg.create ~seed in
      let g = Igraph.create ~n_nodes:n ~n_precolored:pre in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Ra_support.Lcg.int rng 100 < density then Igraph.add_edge g a b
        done
      done;
      same_as_reference g ~k ~costs:(tie_costs rng n))

let synthetic_graphs_match_reference () =
  (* graphs big enough for thousands of elections, with a sprinkle of
     unspillable nodes so the infinite-cost fallback is walked too *)
  List.iter
    (fun (name, gen) ->
      let g =
        Synth_graph.to_igraph
          (gen ~seed:42 ~n_nodes:5000 ~n_precolored:32 ~avg_degree:8)
      in
      let costs =
        Array.init (Igraph.n_nodes g) (fun i ->
          if i mod 97 = 0 then infinity else float_of_int (1 + (i * 7 mod 13)))
      in
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d identical" name k)
            true
            (same_as_reference g ~k ~costs))
        [ 4; 8; 16 ])
    [ ("power_law", Synth_graph.power_law);
      ("geometric", Synth_graph.geometric) ]

(* ---- Select: the stamped int pass against the option-array one ---- *)

(* The option-array Select the stamped pass replaced, kept as the
   reference: a boolean scratch marked by one neighbor sweep and reset
   by a second. *)
let reference_select (g : Igraph.t) ~k ~order =
  let n = Igraph.n_nodes g in
  let colors = Array.make n None in
  for p = 0 to Igraph.n_precolored g - 1 do
    colors.(p) <- Some p
  done;
  let uncolored = ref [] in
  let in_use = Array.make (max k 1) false in
  let color_node node =
    Igraph.iter_neighbors g node ~f:(fun nb ->
      match colors.(nb) with
      | Some c when c < k -> in_use.(c) <- true
      | Some _ | None -> ());
    let rec first_free c =
      if c >= k then None else if in_use.(c) then first_free (c + 1) else Some c
    in
    (match first_free 0 with
     | Some c -> colors.(node) <- Some c
     | None -> uncolored := node :: !uncolored);
    Igraph.iter_neighbors g node ~f:(fun nb ->
      match colors.(nb) with
      | Some c when c < k -> in_use.(c) <- false
      | Some _ | None -> ())
  in
  List.iter color_node (List.rev order);
  { Coloring.colors; uncolored = List.rev !uncolored }

(* Every removal order the classic heuristics hand to Select: Chaitin's
   (marked nodes left out, when its simplify finishes at all), Briggs's
   and Matula's smallest-last. *)
let classic_orders g ~k ~costs =
  let simplify policy =
    match Coloring.simplify g ~k ~costs ~policy with
    | { Coloring.order; _ } -> [ order ]
    | exception Failure _ -> []
  in
  simplify Coloring.Spill_during_simplify
  @ simplify Coloring.Defer_to_select
  @ [ Coloring.smallest_last_order g ]

let select_matches_reference g ~k ~costs =
  List.for_all
    (fun order ->
      Coloring.select g ~k ~order = reference_select g ~k ~order)
    (classic_orders g ~k ~costs)

let prop_select_matches_reference =
  QCheck.Test.make
    ~name:"stamped select equals the option-array reference" ~count:500
    QCheck.(
      pair
        (triple (int_bound 1000000) (int_range 2 60) (int_range 5 70))
        (pair (int_range 0 6) (int_range 1 8)))
    (fun ((seed, n, density), (pre, k)) ->
      (* shrinking may step outside the generators' ranges *)
      let n = max 2 n and k = max 1 k in
      let pre = max 0 (min pre (n - 1)) in
      let rng = Ra_support.Lcg.create ~seed in
      let g = Igraph.create ~n_nodes:n ~n_precolored:pre in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Ra_support.Lcg.int rng 100 < density then Igraph.add_edge g a b
        done
      done;
      select_matches_reference g ~k ~costs:(tie_costs rng n))

let synthetic_graphs_select_matches_reference () =
  (* the benchmark's graph shape: 12,000 webs, average degree 32 *)
  List.iter
    (fun (name, gen) ->
      let g =
        Synth_graph.to_igraph
          (gen ~seed:42 ~n_nodes:12_000 ~n_precolored:32 ~avg_degree:32)
      in
      let costs =
        Array.init (Igraph.n_nodes g) (fun i -> float_of_int (1 + (i * 7 mod 13)))
      in
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d identical" name k)
            true
            (select_matches_reference g ~k ~costs))
        [ 4; 16 ])
    [ ("power_law", Synth_graph.power_law);
      ("geometric", Synth_graph.geometric) ]

let select_forces_no_minor_collection () =
  (* a graph big enough that [colors] lives in the major heap; after an
     emptying [Gc.minor], Select's own few thousand minor words cannot
     fill the minor heap, so any collection would be a forced one *)
  let g = random_graph 7 2_000 1 in
  let { Coloring.order; _ } =
    Coloring.simplify g ~k:8 ~costs:(unit_costs 2_000)
      ~policy:Coloring.Defer_to_select
  in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  ignore (Sys.opaque_identity (Coloring.select g ~k:8 ~order));
  Alcotest.(check int) "minor collections during select" 0
    ((Gc.quick_stat ()).Gc.minor_collections - before)

(* The election module against a scan, under the caller contract: ratios
   rise freely (degree drops, cost rises), and a node is pushed whenever
   its degree rises or it becomes a candidate. *)
let prop_election_matches_scan =
  QCheck.Test.make ~name:"spill election = scan under random updates"
    ~count:300
    QCheck.(pair (int_bound 1000000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Ra_support.Lcg.create ~seed in
      let first = Ra_support.Lcg.int rng (min n 3) in
      let costs = tie_costs rng n in
      let degree = Array.init n (fun _ -> Ra_support.Lcg.int rng 8) in
      let cand = Array.init n (fun i -> i >= first) in
      let e =
        Spill_election.create ~costs ~degree ~first ~candidate:(fun i ->
          cand.(i))
      in
      let ratio i = costs.(i) /. float_of_int (max degree.(i) 1) in
      let scan () =
        let best = ref (-1) in
        for i = first to n - 1 do
          if cand.(i) && (!best < 0 || ratio i < ratio !best) then best := i
        done;
        !best
      in
      let ok = ref true in
      for _ = 1 to 6 * n do
        let i = first + Ra_support.Lcg.int rng (n - first) in
        match Ra_support.Lcg.int rng 6 with
        | 0 -> if degree.(i) > 0 then degree.(i) <- degree.(i) - 1
        | 1 ->
          degree.(i) <- degree.(i) + 1 + Ra_support.Lcg.int rng 3;
          Spill_election.push e i
        | 2 -> costs.(i) <- costs.(i) +. float_of_int (Ra_support.Lcg.int rng 3)
        | 3 ->
          if not cand.(i) then begin
            cand.(i) <- true;
            Spill_election.push e i
          end
        | _ ->
          let want = scan () in
          let got = Spill_election.elect e in
          if got <> want then ok := false;
          if got >= 0 then cand.(got) <- false
      done;
      !ok)

let irc_combine_reenters_election () =
  (* k = 2, every node starts on the spill worklist. Elections take 1
     and then 3 (ratio 0, lowest ids); 3's removal re-enables move
     (0, 4), and George's test merges 4 into 0. The merge lifts 0 back
     onto the spill worklist at degree 3 and cost 1 + 0, a ratio of 1/3
     that ties node 2 and wins on id. An election still holding 0 at its
     pre-merge ratio 1/2 would take 2 instead, so combine must push its
     survivor. *)
  let g =
    graph_of_edges 7
      [ (0, 2); (0, 3); (1, 2); (1, 4); (2, 3); (2, 4); (2, 5); (2, 6);
        (3, 5); (4, 5); (4, 6) ]
  in
  let costs = [| 1.; 0.; 1.; 0.; 0.; 5.; 2. |] in
  let r = Irc.run g ~k:2 ~costs ~moves:[| (0, 4); (3, 4) |] in
  Alcotest.(check int) "4 merged into 0" 0 r.Irc.node_alias.(4);
  Alcotest.(check (list int)) "spills" [ 0; 3 ] r.Irc.uncolored

let bad_costs_rejected () =
  let g = graph_of_edges 3 [ (0, 1); (1, 2) ] in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a bad cost" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun bad ->
      let costs = [| 1.; bad; 1. |] in
      List.iter
        (fun (pname, policy) ->
          rejects ("simplify/" ^ pname) (fun () ->
            ignore (Coloring.simplify g ~k:1 ~costs ~policy)))
        policies;
      rejects "irc" (fun () -> ignore (Irc.run g ~k:1 ~costs ~moves:[||])))
    [ -1.; Float.nan; neg_infinity ]

let suites =
  [ ( "core.igraph",
      [ Alcotest.test_case "basics" `Quick igraph_basics;
        Alcotest.test_case "check_coloring" `Quick igraph_check_coloring ] );
    ( "core.paper_figures",
      [ Alcotest.test_case "figure 2 chaitin 3-colors" `Quick
          fig2_chaitin_three_colors;
        Alcotest.test_case "figure 2 needs 3" `Quick fig2_needs_three;
        Alcotest.test_case "figure 3 chaitin spills" `Quick fig3_chaitin_spills;
        Alcotest.test_case "figure 3 briggs colors" `Quick fig3_briggs_colors;
        Alcotest.test_case "figure 3 matula colors" `Quick fig3_matula_colors ] );
    ( "core.precolored",
      [ Alcotest.test_case "respected" `Quick precolored_respected;
        Alcotest.test_case "forces spill" `Quick precolored_forces_spill ] );
    ( "core.costs",
      [ Alcotest.test_case "chaitin cheapest ratio" `Quick
          chaitin_spills_cheapest_ratio;
        Alcotest.test_case "briggs prefers cheap" `Quick
          briggs_prefers_cheap_spills;
        Alcotest.test_case "infinite avoided" `Quick
          infinite_costs_never_spilled_when_avoidable ] );
    ( "core.smallest_last",
      [ Alcotest.test_case "path order" `Quick smallest_last_on_path;
        Alcotest.test_case "tree 2-colors" `Quick smallest_last_degeneracy_bound ] );
    ( "core.properties",
      [ qtest prop_briggs_subset_of_chaitin;
        qtest prop_colorings_always_proper;
        qtest prop_matula_colors_low_degeneracy;
        qtest prop_select_respects_order_contract ] );
    ( "core.select",
      [ qtest prop_select_matches_reference;
        Alcotest.test_case "synthetic-graph select equals the reference"
          `Quick synthetic_graphs_select_matches_reference;
        Alcotest.test_case "select forces no minor collection" `Quick
          select_forces_no_minor_collection ] );
    ( "core.spill_election",
      [ qtest prop_simplify_matches_reference;
        Alcotest.test_case "synthetic-graph simplify equals the scan" `Quick
          synthetic_graphs_match_reference;
        qtest prop_election_matches_scan;
        Alcotest.test_case "irc combine re-enters the election" `Quick
          irc_combine_reenters_election;
        Alcotest.test_case "negative or NaN costs rejected" `Quick
          bad_costs_rejected ] ) ]
