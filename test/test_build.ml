(* Unit tests for the Build phase: interference edges, call clobbers,
   entry interference, and aggressive coalescing. *)

open Ra_ir
open Ra_analysis
open Ra_core

let build_of src =
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  p, webs, Build.build Machine.rt_pc p cfg ~webs ()

(* the web holding a named user variable: found through its Mov defs *)
let web_of_assignments (p : Proc.t) webs built ~nth_mov =
  let movs = ref [] in
  Array.iteri
    (fun i (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Mov (d, _) -> movs := (i, d) :: !movs
      | _ -> ())
    p.Proc.code;
  let i, d = List.nth (List.rev !movs) nth_mov in
  Build.node_of built (Webs.def_web webs i d)

let overlapping_vars_interfere () =
  let src =
    {| proc f(n: int) : int {
         var a: int; var b: int;
         a = n + 1;
         b = n + 2;
         return a + b;
       } |}
  in
  let p, webs, built = build_of src in
  (* a and b are simultaneously live at the return expression *)
  let na = web_of_assignments p webs built ~nth_mov:0 in
  let nb = web_of_assignments p webs built ~nth_mov:1 in
  Alcotest.(check bool) "a interferes b" true
    (Igraph.interferes built.Build.int_graph na nb)

let disjoint_vars_coalesce_or_dont_interfere () =
  let src =
    {| proc f(n: int) : int {
         var a: int; var b: int;
         a = n + 1;
         print_int(a);
         b = n + 2;
         return b;
       } |}
  in
  let p, webs, built = build_of src in
  let na = web_of_assignments p webs built ~nth_mov:0 in
  let nb = web_of_assignments p webs built ~nth_mov:1 in
  (* with disjoint lifetimes they either merged (same node) or at least
     do not interfere *)
  Alcotest.(check bool) "no conflict" true
    (na = nb || not (Igraph.interferes built.Build.int_graph na nb))

let call_clobbers_across () =
  (* s is live across the call, so it interferes with every caller-save
     float register and cannot be colored into one *)
  let src =
    {| proc g() { print_int(1); }
       proc f(x: float) : float {
         var s: float;
         s = x * 2.0;
         g();
         return s + 1.0;
       } |}
  in
  let procs = Codegen.compile_source src in
  let p = List.find (fun (q : Proc.t) -> q.Proc.name = "f") procs in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let built = Build.build Machine.rt_pc p cfg ~webs () in
  (* find the float web live across the call: the one defined by a Mov *)
  let s_node = ref None in
  Array.iteri
    (fun i (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Mov (d, _) when d.Reg.cls = Reg.Flt_reg ->
        s_node := Some (Build.node_of built (Webs.def_web webs i d))
      | _ -> ())
    p.Proc.code;
  let s_node = Option.get !s_node in
  List.iter
    (fun phys ->
      Alcotest.(check bool)
        (Printf.sprintf "clobbers F%d" phys)
        true
        (Igraph.interferes built.Build.flt_graph phys s_node))
    (Machine.caller_save Machine.rt_pc Reg.Flt_reg);
  (* and under allocation it lands in a callee-save register *)
  let r = Allocator.allocate Machine.rt_pc Heuristic.Briggs p in
  Alcotest.(check int) "no spill needed" 0 r.Allocator.total_spilled

let entry_args_interfere () =
  let src = "proc f(a: int, b: int) : int { return a + b; }" in
  let _, webs, built = build_of src in
  (match Webs.entry_webs webs with
   | [ wa; wb ] ->
     Alcotest.(check bool) "arguments interfere at entry" true
       (Igraph.interferes built.Build.int_graph
          (Build.node_of built wa) (Build.node_of built wb))
   | ws -> Alcotest.failf "expected 2 entry webs, got %d" (List.length ws))

let coalescing_merges_copy_chain () =
  let src =
    {| proc f(n: int) : int {
         var a: int; var b: int;
         a = n * 3;
         b = a;
         return b + 1;
       } |}
  in
  let p, webs, built = build_of src in
  ignore p;
  ignore webs;
  (* t = n*3 feeds a, a feeds b: two copies between non-interfering webs *)
  Alcotest.(check bool) "both copies coalesced" true
    (built.Build.moves_coalesced >= 2)

let coalesce_refuses_interfering () =
  (* b = a where a stays live afterwards and b is redefined while a
     lives: they interfere, so the copy must NOT be merged *)
  let src =
    {| proc f(n: int) : int {
         var a: int; var b: int;
         a = n * 3;
         b = a;
         b = b + n;
         return a + b;
       } |}
  in
  let p, webs, built = build_of src in
  (* find the copy instruction b = a: a Mov whose source is another
     user variable's register (not a fresh temp): check semantics by
     allocation instead *)
  ignore (p, webs);
  let check =
    Igraph.check_coloring built.Build.int_graph
      ~colors:
        (match
           Heuristic.run Heuristic.Briggs built.Build.int_graph
             ~k:(Machine.regs Machine.rt_pc Reg.Int_reg)
             ~costs:
               (Array.make (Igraph.n_nodes built.Build.int_graph) 1.0)
         with
         | Heuristic.Colored colors -> colors
         | Heuristic.Spill _ -> Alcotest.fail "unexpected spill")
  in
  Alcotest.(check bool) "proper coloring despite copy" true (check = None);
  (* end-to-end correctness seals it *)
  let r = Allocator.allocate Machine.rt_pc Heuristic.Briggs p in
  let out =
    Ra_vm.Exec.run ~procs:[ r.Allocator.proc ] ~entry:"f"
      ~args:[ Ra_vm.Value.Vint 5 ] ()
  in
  Alcotest.(check bool) "15 + 20" true
    (out.Ra_vm.Exec.result = Some (Ra_vm.Value.Vint 35))

let node_web_round_trip () =
  let src = "proc f(a: int, x: float) : float { return x + float(a); }" in
  let _, webs, built = build_of src in
  Array.iter
    (fun (w : Webs.web) ->
      let node = Build.node_of built w.Webs.w_id in
      let back = Build.web_of_node built w.Webs.cls node in
      Alcotest.(check bool) "web -> node -> rep web" true
        (Ra_support.Union_find.find built.Build.alias w.Webs.w_id = back))
    (Webs.webs webs)

(* ---- structural equality of builds ---- *)

let same_graph (a : Igraph.t) (b : Igraph.t) =
  Igraph.n_nodes a = Igraph.n_nodes b
  && Igraph.n_precolored a = Igraph.n_precolored b
  && Igraph.n_edges a = Igraph.n_edges b
  && List.for_all
       (fun n -> Igraph.neighbors a n = Igraph.neighbors b n)
       (List.init (Igraph.n_nodes a) Fun.id)

let same_build (x : Build.t) (y : Build.t) =
  same_graph x.Build.int_graph y.Build.int_graph
  && same_graph x.Build.flt_graph y.Build.flt_graph
  && x.Build.node_of_web = y.Build.node_of_web
  && x.Build.web_of_node_int = y.Build.web_of_node_int
  && x.Build.web_of_node_flt = y.Build.web_of_node_flt
  && x.Build.moves_coalesced = y.Build.moves_coalesced

(* ---- edge cache ---- *)

let cached_rebuild_replays_all_blocks () =
  let src =
    "proc f(a: int, b: int, c: int) : int {\n\
    \  var t: int;\n\
    \  if (a > b) { t = a * c; } else { t = b - c; }\n\
    \  return t + a;\n\
     }"
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let n = Cfg.n_blocks cfg in
  let cache = Build.Edge_cache.create () in
  (* coalescing off pins the build to one scan round, making the hit and
     miss counts exact *)
  let plain = Build.build Machine.rt_pc p cfg ~webs ~coalesce:false () in
  let cold =
    Build.build Machine.rt_pc p cfg ~webs ~coalesce:false ~cache ~verify:true
      ()
  in
  Alcotest.(check int) "cold build rescans every block" n
    cold.Build.cache_misses;
  Alcotest.(check int) "cold build replays none" 0 cold.Build.cache_hits;
  let warm =
    Build.build Machine.rt_pc p cfg ~webs ~coalesce:false ~cache ~verify:true
      ()
  in
  Alcotest.(check int) "warm build rescans nothing" 0 warm.Build.cache_misses;
  Alcotest.(check int) "warm build replays every block" n
    warm.Build.cache_hits;
  Alcotest.(check bool) "cached graphs match uncached" true
    (same_build plain warm);
  (* invalidating one block forces exactly that block's rescan *)
  Build.Edge_cache.invalidate_blocks cache [ 0 ];
  let partial =
    Build.build Machine.rt_pc p cfg ~webs ~coalesce:false ~cache ~verify:true
      ()
  in
  Alcotest.(check int) "one miss on the invalidated block" 1
    partial.Build.cache_misses;
  Alcotest.(check int) "other blocks replayed" (n - 1)
    partial.Build.cache_hits;
  Alcotest.(check bool) "partially-cached graphs match" true
    (same_build plain partial);
  (* with coalescing, only round 0 reads the cache: later Conservative
     rounds update their round graph in place and the final scan runs
     uncached, so a warm coalescing build replays every block exactly
     once and still matches an uncached build. An aggressive build
     queries its merging rounds and scans once at the end, so it refuses
     a cache. *)
  Build.Edge_cache.clear cache;
  Alcotest.check_raises "aggressive builds take no cache"
    (Invalid_argument "Build.build: an Aggressive build takes no edge cache")
    (fun () -> ignore (Build.build Machine.rt_pc p cfg ~webs ~cache ()));
  let conservative ?cache ?verify () =
    Build.build Machine.rt_pc p cfg ~webs ~coalesce_mode:Build.Conservative
      ?cache ?verify ()
  in
  let seq = conservative () in
  ignore (conservative ~cache ~verify:true ());
  let rebuilt = conservative ~cache ~verify:true () in
  Alcotest.(check bool) "the build coalesces over several rounds" true
    (rebuilt.Build.rounds > 1);
  Alcotest.(check int) "only round 0 reads the cache" n
    (rebuilt.Build.cache_hits + rebuilt.Build.cache_misses);
  Alcotest.(check int) "first round fully cached" n rebuilt.Build.cache_hits;
  Alcotest.(check bool) "coalescing cached build matches" true
    (same_build seq rebuilt)

let poisoned_cache_trips_verify () =
  (* the mutation test: a stale/corrupt cache entry must not survive a
     verified build — the cross-check against the reference scan has to
     catch it *)
  let src =
    "proc f(a: int, b: int) : int {\n\
    \  var s: int; s = a;\n\
    \  if (a > b) { s = s + b; }\n\
    \  return s * a;\n\
     }"
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let cache = Build.Edge_cache.create () in
  let build ?cache ?verify () =
    Build.build Machine.rt_pc p cfg ~webs ~coalesce_mode:Build.Conservative
      ?cache ?verify ()
  in
  ignore (build ~cache ());
  Alcotest.(check bool) "an entry was poisoned" true
    (Build.Edge_cache.poison cache);
  (match build ~cache ~verify:true () with
   | _ -> Alcotest.fail "verified build accepted a poisoned cache"
   | exception Build.Divergence _ -> ());
  (* and without the cross-check, clearing recovers a correct graph *)
  Build.Edge_cache.clear cache;
  let rebuilt = build ~cache ~verify:true () in
  let plain = build () in
  Alcotest.(check bool) "clear recovers" true (same_build plain rebuilt)

(* ---- interference query ---- *)

let flipped_query_trips_verify () =
  (* the mutation test for the aggressive rounds: one flipped interference
     answer must not survive a verified build — the cross-check against
     the reference graph has to catch it *)
  let src =
    {| proc f(n: int) : int {
         var a: int; var b: int; var c: int;
         a = n * 3;
         b = a;
         c = b + n;
         if (c > a) { c = c - b; }
         return c + a;
       } |}
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let honest = Build.build Machine.rt_pc p cfg ~webs ~verify:true () in
  Alcotest.(check bool) "the program has moves to coalesce" true
    (honest.Build.moves_coalesced > 0);
  Build.seeded_query_flip := true;
  Fun.protect
    ~finally:(fun () -> Build.seeded_query_flip := false)
    (fun () ->
      match Build.build Machine.rt_pc p cfg ~webs ~verify:true () with
      | _ -> Alcotest.fail "verified build accepted a flipped query answer"
      | exception Build.Divergence _ -> ())

(* every aggressive round of every routine: the verified build
   compares each candidate move's query answer — carried from the
   previous round or asked again — with the reference graph's edge.
   Returns the most coalescing rounds one build ran. *)
let query_matches_graph (procs : Proc.t list) =
  List.fold_left
    (fun most (p : Proc.t) ->
      let cfg = Cfg.build p.Proc.code in
      let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
      let built = Build.build Machine.rt_pc p cfg ~webs ~verify:true () in
      max most built.Build.rounds)
    0 procs

let query_matches_graph_on_suite () =
  List.iter
    (fun program ->
      ignore (query_matches_graph (Ra_programs.Suite.compile program)))
    Ra_programs.Suite.all;
  (* optimized, the copy-heavy generated routines coalesce over dozens
     of rounds, so carried answers are checked far past the first round *)
  let most =
    List.fold_left
      (fun most seed ->
        let procs =
          Codegen.compile_source (Ra_programs.Synth.program ~seed ~size:8)
        in
        Ra_opt.Opt.optimize_all procs;
        max most (query_matches_graph procs))
      0 [ 1; 2; 3 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "some synthetic build ran many rounds (%d)" most)
    true (most >= 10)

(* ---- reference: the Conservative fixpoint rebuilt every round ----

   The rebuild-every-round loop [Build]'s Conservative mode ran before it
   kept an in-place round graph: each round solves liveness from scratch
   under the round's aliasing, scans every block into fresh graphs, and
   runs Briggs' test on them. Kept here as the reference the in-place
   rounds must reproduce, decision for decision. *)

type reference_build = {
  r_alias : Ra_support.Union_find.t;
  r_int : Igraph.t;
  r_flt : Igraph.t;
  r_node_of_web : int array;
  r_moves_coalesced : int;
  r_rounds : int;
  r_moves_int : (int * int) array;
  r_moves_flt : (int * int) array;
}

(* The class graphs of aliasing [rep], scanned per Build's rules in its
   emission order: blocks ascending, instructions backward, live sets
   ascending — so adjacency order matches a real build. *)
let reference_graphs machine (p : Proc.t) cfg webs ~rep =
  let n_webs = Webs.n_webs webs in
  let cls w = (Webs.web webs w).Webs.cls in
  let base = Webs.numbering webs in
  let reps l = List.sort_uniq Int.compare (List.map (fun w -> rep.(w)) l) in
  let numbering =
    { Liveness.universe = n_webs;
      defs_of = (fun i -> reps (base.Liveness.defs_of i));
      uses_of = (fun i -> reps (base.Liveness.uses_of i)) }
  in
  let live = Liveness.compute ~code:p.Proc.code ~cfg numbering in
  let k c = Machine.regs machine c in
  let node_of_web = Array.make (max n_webs 1) (-1) in
  let count = [| 0; 0 |] in
  let slot c = match c with Reg.Int_reg -> 0 | Reg.Flt_reg -> 1 in
  for w = 0 to n_webs - 1 do
    if rep.(w) = w then begin
      let c = cls w in
      node_of_web.(w) <- k c + count.(slot c);
      count.(slot c) <- count.(slot c) + 1
    end
  done;
  let graphs =
    Array.map
      (fun c ->
        Igraph.create ~n_nodes:(k c + count.(slot c)) ~n_precolored:(k c))
      [| Reg.Int_reg; Reg.Flt_reg |]
  in
  let edge c a b = Igraph.add_edge graphs.(slot c) a b in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
      let ins = p.Proc.code.(i).Proc.ins in
      let defs =
        match Instr.move_of ins with
        | Some (d, s) ->
          [ rep.(Webs.def_web webs i d), rep.(Webs.use_web webs i s) ]
        | None -> List.map (fun d -> d, -1) (numbering.Liveness.defs_of i)
      in
      List.iter
        (fun (d, excluding) ->
          Ra_support.Bitset.iter
            (fun l ->
              if l <> d && l <> excluding && cls l = cls d then
                edge (cls d) node_of_web.(d) node_of_web.(l))
            live_after)
        defs;
      match ins with
      | Instr.Call { ret; _ } ->
        let ret_rep =
          match ret with Some r -> rep.(Webs.def_web webs i r) | None -> -1
        in
        Ra_support.Bitset.iter
          (fun l ->
            if l <> ret_rep then
              List.iter
                (fun phys -> edge (cls l) phys node_of_web.(l))
                (Machine.caller_save machine (cls l)))
          live_after
      | _ -> ())
  done;
  let entry_in = Liveness.block_live_in live 0 in
  Ra_support.Bitset.iter
    (fun a ->
      Ra_support.Bitset.iter
        (fun b ->
          if a < b && cls a = cls b then
            edge (cls a) node_of_web.(a) node_of_web.(b))
        entry_in)
    entry_in;
  graphs.(0), graphs.(1), node_of_web

(* Briggs' test on a freshly built graph: fewer than [k] neighbors of
   significant post-merge degree, a shared neighbor counted at
   [degree - 1], precolored neighbors always significant. *)
let reference_briggs (g : Igraph.t) ~k nd ns =
  let np = Igraph.n_precolored g in
  let union =
    List.sort_uniq Int.compare (Igraph.neighbors g nd @ Igraph.neighbors g ns)
  in
  let significant t =
    t < np
    ||
    let shared = Igraph.interferes g t nd && Igraph.interferes g t ns in
    Igraph.degree g t - (if shared then 1 else 0) >= k
  in
  List.length (List.filter significant union) < k

let reference_conservative machine (p : Proc.t) cfg webs =
  let module UF = Ra_support.Union_find in
  let n_webs = Webs.n_webs webs in
  let alias = UF.create (max n_webs 1) in
  let moves = ref [] in
  Array.iteri
    (fun i (nd : Proc.node) ->
      match Instr.move_of nd.Proc.ins with
      | Some (d, s) ->
        moves := (Webs.def_web webs i d, Webs.use_web webs i s) :: !moves
      | None -> ())
    p.Proc.code;
  let moves = List.rev !moves in
  let candidate a b =
    a <> b
    && (not (Webs.web webs a).Webs.spill_temp)
    && not (Webs.web webs b).Webs.spill_temp
  in
  let rec round total rounds =
    let rep = Array.init (max n_webs 1) (UF.find alias) in
    let ig, fg, now = reference_graphs machine p cfg webs ~rep in
    let touched = Hashtbl.create 16 in
    let merged = ref 0 in
    List.iter
      (fun (d, s) ->
        let wd = UF.find alias d and ws = UF.find alias s in
        if
          (not (Hashtbl.mem touched wd))
          && (not (Hashtbl.mem touched ws))
          && candidate wd ws
          &&
          let c = (Webs.web webs wd).Webs.cls in
          let g = match c with Reg.Int_reg -> ig | Reg.Flt_reg -> fg in
          (not (Igraph.interferes g now.(wd) now.(ws)))
          && reference_briggs g ~k:(Machine.regs machine c) now.(wd) now.(ws)
        then begin
          ignore (UF.union alias wd ws);
          Hashtbl.replace touched wd ();
          Hashtbl.replace touched ws ();
          incr merged
        end)
      moves;
    if !merged > 0 then round (total + !merged) (rounds + 1)
    else begin
      let seen = Hashtbl.create 16 in
      let staged = [| []; [] |] in
      List.iter
        (fun (d, s) ->
          let wd = UF.find alias d and ws = UF.find alias s in
          let key = (min wd ws, max wd ws) in
          if candidate wd ws && not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            let c =
              match (Webs.web webs wd).Webs.cls with
              | Reg.Int_reg -> 0
              | Reg.Flt_reg -> 1
            in
            staged.(c) <- (now.(wd), now.(ws)) :: staged.(c)
          end)
        moves;
      { r_alias = alias; r_int = ig; r_flt = fg; r_node_of_web = now;
        r_moves_coalesced = total; r_rounds = rounds;
        r_moves_int = Array.of_list (List.rev staged.(0));
        r_moves_flt = Array.of_list (List.rev staged.(1)) }
    end
  in
  round 0 1

let partition uf =
  List.sort compare
    (List.map snd (Ra_support.Union_find.classes uf))

(* Everything the reference decides, compared with a real build. *)
let matches_reference (r : reference_build) (b : Build.t) =
  partition r.r_alias = partition b.Build.alias
  && r.r_moves_coalesced = b.Build.moves_coalesced
  && r.r_rounds = b.Build.rounds
  && r.r_moves_int = b.Build.moves_int
  && r.r_moves_flt = b.Build.moves_flt
  && r.r_node_of_web = b.Build.node_of_web
  && same_graph r.r_int b.Build.int_graph
  && same_graph r.r_flt b.Build.flt_graph

(* One routine through a Conservative pass 1 and, when something can be
   spilled, a spill pass over the [Webs.rebuild] edit (liveness carried
   by [Liveness.update], as the allocation context does): both builds
   must match the reference. Each build also verifies every round graph
   against a scan of its own, raising [Build.Divergence] on the first
   wrong edge — even one that changes no decision the reference could
   see. *)
let conservative_matches_reference machine ~spill_every (p : Proc.t) =
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let conservative ?live0 cfg webs =
    Build.build machine p cfg ~webs ~coalesce_mode:Build.Conservative ?live0
      ~verify:true ()
  in
  let pass1 = conservative cfg webs in
  matches_reference (reference_conservative machine p cfg webs) pass1
  &&
  let spilled =
    List.filter
      (fun w -> w mod spill_every = 0)
      (List.init (Webs.n_webs webs) Fun.id)
  in
  spilled = []
  ||
  let sp = Spill.insert p webs ~spilled:(List.map (fun w -> [ w ]) spilled) in
  let cfg2 =
    Cfg.patch_insertions cfg ~inserted_before:sp.Spill.inserted_before
      ~inserted_after:sp.Spill.inserted_after
  in
  let webs2, old_to_new = Webs.rebuild p ~old:webs sp.Spill.edit in
  let dirty_blocks =
    List.sort_uniq Int.compare
      (List.map (fun i -> cfg.Cfg.block_of_instr.(i)) sp.Spill.dirty_instrs)
  in
  let live0 =
    Liveness.update ~old:pass1.Build.base_live ~code:p.Proc.code ~cfg:cfg2
      (Webs.numbering webs2)
      ~remap:(fun w -> old_to_new.(w))
      ~dirty_blocks
  in
  matches_reference
    (reference_conservative machine p cfg2 webs2)
    (conservative ~live0 cfg2 webs2)

let prop_conservative_matches_reference =
  QCheck.Test.make
    ~name:
      "Conservative rounds match the rebuild-every-round reference \
       (pass 1 and a spill pass, k 4..16)"
    ~count:25
    QCheck.(
      quad (int_bound 1000000) (int_range 5 40) (int_range 4 16)
        (int_range 2 5))
    (fun (seed, size, k, spill_every) ->
      let procs = Codegen.compile_source (Progen.generate ~seed ~size) in
      (* optimized, the generated routines are copy-heavy and coalesce
         over many rounds *)
      Ra_opt.Opt.optimize_all procs;
      let machine =
        { (Machine.with_int_regs Machine.rt_pc k) with
          Machine.flt_regs = max 4 (k / 2) }
      in
      List.for_all (conservative_matches_reference machine ~spill_every) procs)

let conservative_matches_reference_on_suite () =
  List.iter
    (fun program ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (p.Proc.name ^ " matches the reference")
            true
            (conservative_matches_reference Machine.rt_pc ~spill_every:4 p))
        (Ra_programs.Suite.compile program))
    Ra_programs.Suite.all

let flipped_round_edge_trips_verify () =
  (* the mutation test for the per-round cross-check: one flipped edge in
     the in-place round graph must not survive a verified Conservative
     build *)
  let procs =
    Codegen.compile_source (Ra_programs.Synth.program ~seed:2 ~size:8)
  in
  Ra_opt.Opt.optimize_all procs;
  let p =
    List.find
      (fun (p : Proc.t) ->
        let cfg = Cfg.build p.Proc.code in
        let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
        (Build.build Machine.rt_pc p cfg ~webs
           ~coalesce_mode:Build.Conservative ())
          .Build.rounds > 2)
      procs
  in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let build () =
    Build.build Machine.rt_pc p cfg ~webs ~coalesce_mode:Build.Conservative
      ~verify:true ()
  in
  ignore (build ());
  Build.seeded_query_flip := true;
  Fun.protect
    ~finally:(fun () -> Build.seeded_query_flip := false)
    (fun () ->
      match build () with
      | _ -> Alcotest.fail "verified build accepted a flipped round edge"
      | exception Build.Divergence _ -> ())

let suites =
  [ ( "build.interference",
      [ Alcotest.test_case "overlapping vars interfere" `Quick
          overlapping_vars_interfere;
        Alcotest.test_case "disjoint vars don't" `Quick
          disjoint_vars_coalesce_or_dont_interfere;
        Alcotest.test_case "call clobbers" `Quick call_clobbers_across;
        Alcotest.test_case "entry args interfere" `Quick entry_args_interfere ] );
    ( "build.coalescing",
      [ Alcotest.test_case "merges copy chain" `Quick
          coalescing_merges_copy_chain;
        Alcotest.test_case "refuses interfering" `Quick
          coalesce_refuses_interfering;
        Alcotest.test_case "node/web round trip" `Quick node_web_round_trip ] );
    ( "build.edge_cache",
      [ Alcotest.test_case "cached rebuild replays all blocks" `Quick
          cached_rebuild_replays_all_blocks;
        Alcotest.test_case "poisoned cache trips verify" `Quick
          poisoned_cache_trips_verify ] );
    ( "build.query",
      [ Alcotest.test_case "flipped answer trips verify" `Quick
          flipped_query_trips_verify;
        Alcotest.test_case "answers match the graph on the suite" `Quick
          query_matches_graph_on_suite ] );
    ( "build.conservative",
      [ Alcotest.test_case "flipped round edge trips verify" `Quick
          flipped_round_edge_trips_verify;
        Alcotest.test_case "suite matches the reference" `Slow
          conservative_matches_reference_on_suite;
        QCheck_alcotest.to_alcotest prop_conservative_matches_reference ] ) ]
