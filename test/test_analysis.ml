(* Tests for the dataflow analyses: liveness, reaching definitions,
   dominators, natural loops, and web construction. *)

open Ra_ir
open Ra_analysis

let qtest = QCheck_alcotest.to_alcotest

let node ins = { Proc.ins; depth = 0 }

let mk_proc ?(args = []) code =
  let p = Proc.create ~name:"t" ~args ~ret_cls:None in
  (* counters must cover the registers mentioned *)
  p.Proc.code <- Array.of_list (List.map node code);
  p.Proc.next_int <- Proc.max_reg_id p Reg.Int_reg;
  p.Proc.next_flt <- Proc.max_reg_id p Reg.Flt_reg;
  p

(* ---- liveness ---- *)

let liveness_straight_line () =
  let i0 = Reg.int 0 and i1 = Reg.int 1 and i2 = Reg.int 2 in
  let p =
    mk_proc
      [ Instr.Li (i0, 1);
        Instr.Li (i1, 2);
        Instr.Binop (Instr.Iadd, i2, i0, i1);
        Instr.Ret (Some i2) ]
  in
  let cfg = Cfg.build p.Proc.code in
  let live = Liveness.compute ~code:p.Proc.code ~cfg (Liveness.vreg_numbering p) in
  let after i = Ra_support.Bitset.elements (Liveness.live_after live i) in
  Alcotest.(check (list int)) "after li i0" [ 0 ] (after 0);
  Alcotest.(check (list int)) "after li i1" [ 0; 1 ] (after 1);
  Alcotest.(check (list int)) "after add" [ 2 ] (after 2);
  Alcotest.(check (list int)) "after ret" [] (after 3)

let liveness_branch () =
  (* i1 is live across the branch only on the path that uses it *)
  let i0 = Reg.int 0 and i1 = Reg.int 1 in
  let p =
    mk_proc
      [ Instr.Li (i0, 1); (* 0 *)
        Instr.Li (i1, 2); (* 1 *)
        Instr.Cbr (Instr.Lt, i0, i0, 0, 1); (* 2 *)
        Instr.Label 0; (* 3 *)
        Instr.Ret (Some i1); (* 4 *)
        Instr.Label 1; (* 5 *)
        Instr.Ret (Some i0) (* 6 *) ]
  in
  let cfg = Cfg.build p.Proc.code in
  let live = Liveness.compute ~code:p.Proc.code ~cfg (Liveness.vreg_numbering p) in
  Alcotest.(check (list int)) "both live into branch" [ 0; 1 ]
    (Ra_support.Bitset.elements (Liveness.live_after live 1))

let liveness_loop () =
  (* a value used after a loop stays live through it *)
  let i0 = Reg.int 0 and i1 = Reg.int 1 in
  let p =
    mk_proc
      [ Instr.Li (i0, 1); (* 0 *)
        Instr.Li (i1, 10); (* 1 *)
        Instr.Label 0; (* 2 *)
        Instr.Binop (Instr.Isub, i1, i1, i1); (* 3: churn i1 *)
        Instr.Cbr (Instr.Lt, i1, i1, 0, 1); (* 4 *)
        Instr.Label 1; (* 5 *)
        Instr.Ret (Some i0) (* 6 *) ]
  in
  let cfg = Cfg.build p.Proc.code in
  let live = Liveness.compute ~code:p.Proc.code ~cfg (Liveness.vreg_numbering p) in
  Alcotest.(check bool) "i0 live through the loop" true
    (Ra_support.Bitset.mem (Liveness.live_after live 3) 0)

(* naive reference implementation: per-instruction CFG backward fixpoint *)
let naive_liveness (p : Proc.t) =
  let code = p.Proc.code in
  let n = Array.length code in
  let index = Liveness.vreg_index p in
  let universe = p.Proc.next_int + p.Proc.next_flt in
  let label_at = Hashtbl.create 8 in
  Array.iteri
    (fun i (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Label l -> Hashtbl.replace label_at l i
      | _ -> ())
    code;
  let succs i =
    match (code.(i)).Proc.ins with
    | Instr.Ret _ -> []
    | Instr.Br l -> [ Hashtbl.find label_at l ]
    | Instr.Cbr (_, _, _, a, b) ->
      [ Hashtbl.find label_at a; Hashtbl.find label_at b ]
    | _ -> if i + 1 < n then [ i + 1 ] else []
  in
  let live_in = Array.init n (fun _ -> Ra_support.Bitset.create universe) in
  let live_out = Array.init n (fun _ -> Ra_support.Bitset.create universe) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      List.iter
        (fun s ->
          if Ra_support.Bitset.union_into ~into:live_out.(i) live_in.(s) then
            changed := true)
        (succs i);
      let scratch = Ra_support.Bitset.copy live_out.(i) in
      List.iter
        (fun d -> Ra_support.Bitset.remove scratch (index d))
        (Instr.defs (code.(i)).Proc.ins);
      List.iter
        (fun u -> Ra_support.Bitset.add scratch (index u))
        (Instr.uses (code.(i)).Proc.ins);
      if Ra_support.Bitset.assign ~into:live_in.(i) scratch then changed := true
    done
  done;
  live_out

let prop_liveness_matches_naive =
  QCheck.Test.make ~name:"liveness agrees with a naive per-instruction solver"
    ~count:40
    QCheck.(pair (int_bound 100000) (int_range 5 25))
    (fun (seed, size) ->
      let src = Progen.generate ~seed ~size in
      let procs = Codegen.compile_source src in
      List.for_all
        (fun (p : Proc.t) ->
          let cfg = Cfg.build p.Proc.code in
          let live =
            Liveness.compute ~code:p.Proc.code ~cfg (Liveness.vreg_numbering p)
          in
          let reference = naive_liveness p in
          let ok = ref true in
          Array.iteri
            (fun i (_ : Proc.node) ->
              if not (Ra_support.Bitset.equal (Liveness.live_after live i) reference.(i))
              then ok := false)
            p.Proc.code;
          !ok)
        procs)

(* ---- incremental liveness (Liveness.update) ---- *)

(* Compare a patched solution against a from-scratch [compute] on the
   edited code, block by block, and return it for further probing. *)
let check_update_matches_compute ~msg ~old_live (p : Proc.t) ~remap
    ~dirty_blocks =
  let cfg = Cfg.build p.Proc.code in
  let numbering = Liveness.vreg_numbering p in
  let fresh = Liveness.compute ~code:p.Proc.code ~cfg numbering in
  let updated =
    Liveness.update ~old:old_live ~code:p.Proc.code ~cfg numbering ~remap
      ~dirty_blocks
  in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: live-in of block %d" msg b)
      true
      (Ra_support.Bitset.equal
         (Liveness.block_live_in updated b)
         (Liveness.block_live_in fresh b));
    Alcotest.(check bool)
      (Printf.sprintf "%s: live-out of block %d" msg b)
      true
      (Ra_support.Bitset.equal
         (Liveness.block_live_out updated b)
         (Liveness.block_live_out fresh b))
  done;
  updated

let update_propagates_to_clean_blocks () =
  (* Inserting a use of a previously dead value into one block must make
     it live in CLEAN predecessor blocks too: the worklist seeded with
     the dirty block has to run the change uphill. *)
  let i0 = Reg.int 0 and i1 = Reg.int 1 in
  let old_p =
    mk_proc
      [ Instr.Li (i0, 1); (* 0  block 0: i0 dead after this *)
        Instr.Li (i1, 2); (* 1 *)
        Instr.Cbr (Instr.Lt, i1, i1, 0, 1); (* 2 *)
        Instr.Label 0; (* 3  block 1 *)
        Instr.Ret (Some i1); (* 4 *)
        Instr.Label 1; (* 5  block 2 *)
        Instr.Ret (Some i1) (* 6 *) ]
  in
  let old_cfg = Cfg.build old_p.Proc.code in
  let old_live =
    Liveness.compute ~code:old_p.Proc.code ~cfg:old_cfg
      (Liveness.vreg_numbering old_p)
  in
  Alcotest.(check bool) "i0 dead across the branch before the edit" false
    (Ra_support.Bitset.mem (Liveness.block_live_out old_live 0) 0);
  (* the edit widens block 1 with a use of i0; blocks 0 and 2 untouched *)
  let new_p =
    mk_proc
      [ Instr.Li (i0, 1);
        Instr.Li (i1, 2);
        Instr.Cbr (Instr.Lt, i1, i1, 0, 1);
        Instr.Label 0;
        Instr.Binop (Instr.Iadd, i1, i1, i0); (* inserted *)
        Instr.Ret (Some i1);
        Instr.Label 1;
        Instr.Ret (Some i1) ]
  in
  let updated =
    check_update_matches_compute ~msg:"insertion" ~old_live new_p
      ~remap:(fun i -> i) ~dirty_blocks:[ 1 ]
  in
  Alcotest.(check bool) "i0 now live out of the clean entry block" true
    (Ra_support.Bitset.mem (Liveness.block_live_out updated 0) 0)

let update_retires_ids_everywhere () =
  (* A spilled web's id is remapped to -1; its bits must vanish from the
     carried-over facts of clean blocks, not just the dirty ones. *)
  let i0 = Reg.int 0 and i1 = Reg.int 1 in
  let i2 = Reg.int 2 and i3 = Reg.int 3 in
  let old_p =
    mk_proc
      [ Instr.Li (i0, 1); (* 0  block 0 *)
        Instr.Li (i1, 5); (* 1 *)
        Instr.Br 0; (* 2 *)
        Instr.Label 0; (* 3  block 1: i1 live straight through *)
        Instr.Binop (Instr.Iadd, i0, i0, i0); (* 4 *)
        Instr.Br 1; (* 5 *)
        Instr.Label 1; (* 6  block 2 *)
        Instr.Binop (Instr.Iadd, i0, i0, i1); (* 7 *)
        Instr.Ret (Some i0) (* 8 *) ]
  in
  let old_cfg = Cfg.build old_p.Proc.code in
  let old_live =
    Liveness.compute ~code:old_p.Proc.code ~cfg:old_cfg
      (Liveness.vreg_numbering old_p)
  in
  Alcotest.(check bool) "i1 live through the middle block before" true
    (Ra_support.Bitset.mem (Liveness.block_live_in old_live 1) 1);
  (* the edit retires i1 the way spilling does: its def site becomes a
     temp (i2), its use site a reload temp (i3); block 1 is untouched *)
  let new_p =
    mk_proc
      [ Instr.Li (i0, 1);
        Instr.Li (i2, 5); (* was the def of i1 *)
        Instr.Br 0;
        Instr.Label 0;
        Instr.Binop (Instr.Iadd, i0, i0, i0);
        Instr.Br 1;
        Instr.Label 1;
        Instr.Li (i3, 5); (* the reload *)
        Instr.Binop (Instr.Iadd, i0, i0, i3);
        Instr.Ret (Some i0) ]
  in
  let remap i = if i = 1 then -1 else i in
  let updated =
    check_update_matches_compute ~msg:"retirement" ~old_live new_p ~remap
      ~dirty_blocks:[ 0; 2 ]
  in
  let n_blocks = 3 in
  for b = 0 to n_blocks - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "retired id absent from live-in of block %d" b)
      false
      (Ra_support.Bitset.mem (Liveness.block_live_in updated b) 1);
    Alcotest.(check bool)
      (Printf.sprintf "retired id absent from live-out of block %d" b)
      false
      (Ra_support.Bitset.mem (Liveness.block_live_out updated b) 1)
  done

let update_noop_is_identity () =
  let i0 = Reg.int 0 and i1 = Reg.int 1 in
  let p =
    mk_proc
      [ Instr.Li (i0, 1);
        Instr.Li (i1, 10);
        Instr.Label 0;
        Instr.Binop (Instr.Isub, i1, i1, i1);
        Instr.Cbr (Instr.Lt, i1, i1, 0, 1);
        Instr.Label 1;
        Instr.Ret (Some i0) ]
  in
  let cfg = Cfg.build p.Proc.code in
  let old_live =
    Liveness.compute ~code:p.Proc.code ~cfg (Liveness.vreg_numbering p)
  in
  ignore
    (check_update_matches_compute ~msg:"noop" ~old_live p ~remap:(fun i -> i)
       ~dirty_blocks:[])

let prop_update_extremes_match_compute =
  (* Two degenerate edits bound the incremental solver on arbitrary
     programs: nothing dirty (pure carry-over) and everything dirty
     (full recomputation through the update path). Both must land on the
     least fixpoint [compute] reaches. *)
  QCheck.Test.make
    ~name:"liveness update with no dirt / all dirty reproduces compute"
    ~count:25
    QCheck.(pair (int_bound 100000) (int_range 5 25))
    (fun (seed, size) ->
      let src = Progen.generate ~seed ~size in
      let procs = Codegen.compile_source src in
      List.for_all
        (fun (p : Proc.t) ->
          let cfg = Cfg.build p.Proc.code in
          let numbering = Liveness.vreg_numbering p in
          let live = Liveness.compute ~code:p.Proc.code ~cfg numbering in
          let n = Cfg.n_blocks cfg in
          let same a b =
            let ok = ref true in
            for blk = 0 to n - 1 do
              if
                not
                  (Ra_support.Bitset.equal
                     (Liveness.block_live_in a blk)
                     (Liveness.block_live_in b blk)
                  && Ra_support.Bitset.equal
                       (Liveness.block_live_out a blk)
                       (Liveness.block_live_out b blk))
              then ok := false
            done;
            !ok
          in
          let update dirty_blocks =
            Liveness.update ~old:live ~code:p.Proc.code ~cfg numbering
              ~remap:(fun i -> i) ~dirty_blocks
          in
          same (update []) live
          && same (update (List.init n (fun b -> b))) live)
        procs)

(* ---- per-column refresh (Liveness.refresh) ---- *)

let same_block_sets (cfg : Cfg.t) a b =
  let ok = ref true in
  for blk = 0 to Cfg.n_blocks cfg - 1 do
    if
      not
        (Ra_support.Bitset.equal
           (Liveness.block_live_in a blk)
           (Liveness.block_live_in b blk)
        && Ra_support.Bitset.equal
             (Liveness.block_live_out a blk)
             (Liveness.block_live_out b blk))
    then ok := false
  done;
  !ok

(* does id [c]'s column differ between [a] and [b] at some block boundary? *)
let column_differs (cfg : Cfg.t) a b c =
  let differs = ref false in
  for blk = 0 to Cfg.n_blocks cfg - 1 do
    let bit f t = Ra_support.Bitset.mem (f t blk) c in
    if
      bit Liveness.block_live_in a <> bit Liveness.block_live_in b
      || bit Liveness.block_live_out a <> bit Liveness.block_live_out b
    then differs := true
  done;
  !differs

(* Chain [steps] refreshes over random same-class web merges of [p]'s
   webs, each on the previous one's output, and check every result
   against a full [compute] under the merged numbering. The mutation:
   for every changed column whose bits moved at a block boundary, a
   refresh that leaves that one column out must fail the same
   comparison. Every refresh must leave its input solution as it was.
   Returns how many such mutants were caught. *)
let check_refresh_chain ~msg ~rng (p : Proc.t) ~steps =
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let n = Webs.n_webs webs in
  let caught = ref 0 in
  if n >= 2 then begin
    let base = Webs.numbering webs in
    let alias = Ra_support.Union_find.create n in
    let numbering rep =
      let map ws =
        List.sort_uniq Int.compare (List.map (fun w -> rep.(w)) ws)
      in
      { Liveness.universe = n;
        defs_of = (fun i -> map (base.Liveness.defs_of i));
        uses_of = (fun i -> map (base.Liveness.uses_of i)) }
    in
    let sites rep c f =
      Array.iter
        (fun (web : Webs.web) ->
          if rep.(web.Webs.w_id) = c then begin
            List.iter (fun i -> f ~def:true i) web.Webs.def_sites;
            List.iter (fun i -> f ~def:false i) web.Webs.use_sites
          end)
        (Webs.webs webs)
    in
    let live = ref (Liveness.compute ~code:p.Proc.code ~cfg base) in
    let live_ref = ref (Liveness.compute ~code:p.Proc.code ~cfg base) in
    let rep = ref (Array.init n Fun.id) in
    for step = 1 to steps do
      for _ = 0 to Random.State.int rng 3 do
        let a = Random.State.int rng n and b = Random.State.int rng n in
        if (Webs.web webs a).Webs.cls = (Webs.web webs b).Webs.cls then
          ignore (Ra_support.Union_find.union alias a b)
      done;
      let prev = !rep in
      let next = Array.init n (Ra_support.Union_find.find alias) in
      let changed =
        List.init n Fun.id
        |> List.concat_map (fun w ->
             if prev.(w) <> next.(w) then [ prev.(w); next.(w) ] else [])
        |> List.sort_uniq Int.compare
      in
      let numbering = numbering next in
      let reference = Liveness.compute ~code:p.Proc.code ~cfg numbering in
      let refresh changed =
        Liveness.refresh ~old:!live ~cfg numbering ~changed ~sites:(sites next)
      in
      let refreshed = refresh changed in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: refresh %d equals compute" msg p.Proc.name step)
        true
        (same_block_sets cfg refreshed reference);
      List.iter
        (fun c ->
          if column_differs cfg !live reference c then begin
            let mutant = refresh (List.filter (fun d -> d <> c) changed) in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: refresh %d without column %d is caught"
                 msg p.Proc.name step c)
              false
              (same_block_sets cfg mutant reference);
            incr caught
          end)
        changed;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: refresh %d leaves its input alone" msg
           p.Proc.name step)
        true
        (same_block_sets cfg !live !live_ref);
      live := refreshed;
      live_ref := reference;
      rep := next
    done
  end;
  !caught

let refresh_chains_match_compute () =
  let rng = Random.State.make [| 16 |] in
  let chains msg procs =
    List.fold_left
      (fun caught p -> caught + check_refresh_chain ~msg ~rng p ~steps:6)
      0 procs
  in
  let suite =
    chains "suite"
      (List.concat_map Ra_programs.Suite.compile Ra_programs.Suite.all)
  in
  let synth =
    chains "synth"
      (List.concat_map
         (fun seed ->
           Codegen.compile_source (Ra_programs.Synth.program ~seed ~size:20))
         [ 1; 2; 3; 4 ])
  in
  Alcotest.(check bool) "a dropped column was caught on the suite" true
    (suite > 0);
  Alcotest.(check bool) "a dropped column was caught on synth" true
    (synth > 0)

(* ---- dominators ---- *)

let naive_dominators (cfg : Cfg.t) =
  (* dom(b) = {b} ∪ ∩ dom(preds) via fixpoint over all-blocks sets *)
  let n = Cfg.n_blocks cfg in
  let reachable = Array.make n false in
  let rec mark b =
    if not reachable.(b) then begin
      reachable.(b) <- true;
      List.iter mark cfg.Cfg.blocks.(b).Cfg.succs
    end
  in
  mark 0;
  let dom = Array.init n (fun _ -> Array.make n true) in
  Array.iteri (fun i d -> if i = 0 then Array.iteri (fun j _ -> d.(j) <- j = 0) d) dom;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      if reachable.(b) then begin
        let inter = Array.make n true in
        let preds =
          List.filter (fun p -> reachable.(p)) cfg.Cfg.blocks.(b).Cfg.preds
        in
        List.iter
          (fun p ->
            for j = 0 to n - 1 do
              if not dom.(p).(j) then inter.(j) <- false
            done)
          preds;
        if preds = [] then Array.fill inter 0 n false;
        inter.(b) <- true;
        if inter <> dom.(b) then begin
          dom.(b) <- inter;
          changed := true
        end
      end
    done
  done;
  fun ~dominator ~node ->
    reachable.(node) && reachable.(dominator) && dom.(node).(dominator)

let prop_dominators_match_naive =
  QCheck.Test.make ~name:"CHK dominators agree with the set-based fixpoint"
    ~count:40
    QCheck.(pair (int_bound 100000) (int_range 5 25))
    (fun (seed, size) ->
      let src = Progen.generate ~seed ~size in
      let procs = Codegen.compile_source src in
      List.for_all
        (fun (p : Proc.t) ->
          let cfg = Cfg.build p.Proc.code in
          let doms = Dominators.compute cfg in
          let reference = naive_dominators cfg in
          let n = Cfg.n_blocks cfg in
          let ok = ref true in
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              let fast = Dominators.dominates doms ~dom:a ~node:b in
              let slow = reference ~dominator:a ~node:b in
              if fast <> slow then ok := false
            done
          done;
          !ok)
        procs)

let dominators_diamond () =
  let i0 = Reg.int 0 in
  let p =
    mk_proc
      [ Instr.Cbr (Instr.Lt, i0, i0, 0, 1);
        Instr.Label 0;
        Instr.Br 2;
        Instr.Label 1;
        Instr.Br 2;
        Instr.Label 2;
        Instr.Ret None ]
  in
  let cfg = Cfg.build p.Proc.code in
  let doms = Dominators.compute cfg in
  Alcotest.(check bool) "entry dominates join" true
    (Dominators.dominates doms ~dom:0 ~node:3);
  Alcotest.(check bool) "arm does not dominate join" false
    (Dominators.dominates doms ~dom:1 ~node:3);
  Alcotest.(check bool) "idom of join is entry" true
    (Dominators.idom doms 3 = Some 0)

(* ---- loops ---- *)

let loops_nesting_agrees_with_codegen () =
  (* the loop analysis must assign each instruction the same depth the
     code generator recorded syntactically *)
  let src =
    {| proc f(n: int) {
         var i: int; var j: int; var k: int; var s: int;
         s = 0;
         for i = 1 to n {
           s = s + 1;
           for j = 1 to n {
             s = s + 2;
           }
         }
         for k = 1 to n { s = s * 2; }
       } |}
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let doms = Dominators.compute cfg in
  let loops = Loops.compute cfg doms in
  Alcotest.(check int) "three natural loops" 3
    (List.length (Loops.loops loops));
  Array.iteri
    (fun i (nd : Proc.node) ->
      (* the instructions codegen placed at syntactic depth d sit in
         blocks of loop-nesting depth d, except loop-exit labels *)
      match nd.Proc.ins with
      | Instr.Label _ -> ()
      | _ ->
        Alcotest.(check int)
          (Printf.sprintf "depth at %d" i)
          nd.Proc.depth
          (Loops.instr_depth loops ~cfg i))
    p.Proc.code

let prop_loop_depth_matches_syntactic =
  QCheck.Test.make
    ~name:"natural-loop depth equals codegen's syntactic depth" ~count:40
    QCheck.(pair (int_bound 100000) (int_range 5 25))
    (fun (seed, size) ->
      let src = Progen.generate ~seed ~size in
      let procs = Codegen.compile_source src in
      List.for_all
        (fun (p : Proc.t) ->
          let cfg = Cfg.build p.Proc.code in
          let doms = Dominators.compute cfg in
          let loops = Loops.compute cfg doms in
          let ok = ref true in
          Array.iteri
            (fun i (nd : Proc.node) ->
              match nd.Proc.ins with
              | Instr.Label _ -> ()
              | _ ->
                if nd.Proc.depth <> Loops.instr_depth loops ~cfg i then
                  ok := false)
            p.Proc.code;
          !ok)
        procs)

(* ---- webs ---- *)

let webs_split_disjoint_lifetimes () =
  (* one variable reused for two unrelated purposes becomes two webs *)
  let src =
    {| proc f(n: int) : int {
         var t: int;
         t = n + 1;
         print_int(t);
         t = n * 2;
         return t;
       } |}
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  (* find the variable: the register moved-to twice *)
  let mov_targets = Hashtbl.create 4 in
  Array.iteri
    (fun i (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Mov (d, _) ->
        Hashtbl.replace mov_targets d.Reg.id
          (i :: (Option.value ~default:[] (Hashtbl.find_opt mov_targets d.Reg.id)))
      | _ -> ())
    p.Proc.code;
  let t_reg, defs =
    Hashtbl.fold
      (fun id defs acc ->
        if List.length defs >= 2 then Some (id, defs) else acc)
      mov_targets None
    |> Option.get
  in
  (match defs with
   | [ d2; d1 ] ->
     let w1 = Webs.def_web webs d1 (Reg.int t_reg) in
     let w2 = Webs.def_web webs d2 (Reg.int t_reg) in
     Alcotest.(check bool) "two defs, two webs" true (w1 <> w2)
   | _ -> Alcotest.fail "expected two defs")

let webs_join_at_merge () =
  (* a variable assigned on both branches and used after the join is one
     web: both defs reach the use *)
  let src =
    {| proc f(n: int) : int {
         var t: int;
         if (n > 0) { t = 1; } else { t = 2; }
         return t;
       } |}
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let def_webs = ref [] in
  Array.iteri
    (fun i (nd : Proc.node) ->
      match nd.Proc.ins with
      | Instr.Mov (d, _) -> def_webs := Webs.def_web webs i d :: !def_webs
      | _ -> ())
    p.Proc.code;
  (match List.sort_uniq compare !def_webs with
   | [ _ ] -> ()
   | ws -> Alcotest.failf "expected one web for t, got %d" (List.length ws))

let webs_args_have_entry_defs () =
  let src = "proc f(a: int, x: float) : float { return x + float(a); }" in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let entry = Webs.entry_webs webs in
  Alcotest.(check int) "two argument webs" 2 (List.length entry);
  List.iter
    (fun w ->
      let web = Webs.web webs w in
      Alcotest.(check bool) "argument web has no def site" true
        (web.Webs.def_sites = []))
    entry

let webs_spill_temp_flag () =
  let src = "proc f(a: int) : int { return a + 1; }" in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs =
    Webs.build p cfg ~is_spill_vreg:(fun r -> r.Reg.id = 0 && r.Reg.cls = Reg.Int_reg)
  in
  let flagged =
    Array.to_list (Webs.webs webs)
    |> List.filter (fun w -> w.Webs.spill_temp)
  in
  Alcotest.(check int) "exactly the marked vreg's web" 1 (List.length flagged)

let webs_rebuild_noop_is_identity () =
  (* rebuilding through an edit that touched nothing must reproduce the
     table bit for bit — ids, partition, site lists — because surviving
     webs keep the canonical min-def-id numbering *)
  let src =
    {| proc f(n: int) : int {
         var s: int; var i: int;
         s = 0;
         for i = 1 to n { s = s + i * n; }
         return s;
       } |}
  in
  let p = List.hd (Codegen.compile_source src) in
  let cfg = Cfg.build p.Proc.code in
  let webs = Webs.build p cfg ~is_spill_vreg:(fun _ -> false) in
  let n_old = Array.length p.Proc.code in
  let edit =
    { Webs.instr_map = Array.init n_old (fun i -> i);
      retired = Array.make (Webs.n_webs webs) false;
      new_temp_regs = [] }
  in
  let rebuilt, old_to_new = Webs.rebuild p ~old:webs edit in
  Alcotest.(check int) "same web count" (Webs.n_webs webs)
    (Webs.n_webs rebuilt);
  Alcotest.(check (list int)) "identity renumbering"
    (List.init (Webs.n_webs webs) (fun i -> i))
    (Array.to_list old_to_new);
  Alcotest.(check bool) "web tables equal" true
    (Webs.webs rebuilt = Webs.webs webs);
  Array.iteri
    (fun i (_ : Proc.node) ->
      Alcotest.(check (list int))
        (Printf.sprintf "uses at %d" i)
        (Webs.uses_at webs i) (Webs.uses_at rebuilt i);
      Alcotest.(check (list int))
        (Printf.sprintf "defs at %d" i)
        (Webs.defs_at webs i) (Webs.defs_at rebuilt i))
    p.Proc.code

(* ---- reference: web construction through hash tables ----

   [Webs.build] as it was before it moved to arrays indexed by
   representative: six hash tables, a min-def sort for the canonical ids,
   and a per-block hash table of in-block definitions for the use walk.
   The array version must produce the same table. *)

type reference_webs = {
  rw_webs : Webs.web array;
  rw_use_maps : (int * int) list array; (* instr -> (vreg index, web) *)
  rw_def_maps : (int * int) list array;
}

let reference_iter_uses (p : Proc.t) (cfg : Cfg.t) rd ~f =
  let n_vregs = p.Proc.next_int + p.Proc.next_flt in
  let defs_of_vreg = Array.make n_vregs [] in
  for d = Reaching_defs.n_defs rd - 1 downto 0 do
    let v = Reaching_defs.vreg_of rd d in
    defs_of_vreg.(v) <- d :: defs_of_vreg.(v)
  done;
  let index = Liveness.vreg_index p in
  Array.iter
    (fun (b : Cfg.block) ->
      let local = Hashtbl.create 16 in
      let rin = Reaching_defs.reaching_in rd b.Cfg.bindex in
      for i = b.Cfg.first to b.Cfg.last do
        List.iter
          (fun u ->
            let v = index u in
            let reaching =
              match Hashtbl.find_opt local v with
              | Some d -> [ d ]
              | None ->
                List.filter (fun d -> Ra_support.Bitset.mem rin d)
                  defs_of_vreg.(v)
            in
            f i v (if reaching = [] then [ v ] else reaching))
          (Instr.uses p.Proc.code.(i).Proc.ins);
        match Reaching_defs.def_at rd i with
        | Some d -> Hashtbl.replace local (Reaching_defs.vreg_of rd d) d
        | None -> ()
      done)
    cfg.Cfg.blocks

let reference_webs (p : Proc.t) cfg ~is_spill_vreg =
  let n_instr = Array.length p.Proc.code in
  let n_vregs = p.Proc.next_int + p.Proc.next_flt in
  let rd = Reaching_defs.compute p cfg in
  let uf = Ra_support.Union_find.create (Reaching_defs.n_defs rd) in
  let find = Ra_support.Union_find.find uf in
  reference_iter_uses p cfg rd ~f:(fun _ _ reaching ->
    match reaching with
    | [] -> assert false
    | first :: rest ->
      List.iter
        (fun d -> ignore (Ra_support.Union_find.union uf first d))
        rest);
  let vreg_of_rep = Hashtbl.create 64 in
  let def_sites = Hashtbl.create 64 and use_sites = Hashtbl.create 64 in
  let push tbl rep i =
    Hashtbl.replace tbl rep
      (i :: Option.value ~default:[] (Hashtbl.find_opt tbl rep))
  in
  let note_rep rep v =
    if not (Hashtbl.mem vreg_of_rep rep) then Hashtbl.replace vreg_of_rep rep v
  in
  for i = 0 to n_instr - 1 do
    match Reaching_defs.def_at rd i with
    | None -> ()
    | Some d ->
      let rep = find d in
      note_rep rep (Reaching_defs.vreg_of rd d);
      push def_sites rep i
  done;
  let use_maps = Array.make n_instr [] in
  reference_iter_uses p cfg rd ~f:(fun i v reaching ->
    let rep = find (List.hd reaching) in
    note_rep rep v;
    push use_sites rep i;
    use_maps.(i) <- (v, rep) :: use_maps.(i));
  let entry = Hashtbl.create 64 in
  for v = 0 to n_vregs - 1 do
    if Hashtbl.mem vreg_of_rep (find v) then Hashtbl.replace entry (find v) ()
  done;
  let min_def = Hashtbl.create 64 in
  for d = 0 to Reaching_defs.n_defs rd - 1 do
    let rep = find d in
    if Hashtbl.mem vreg_of_rep rep && not (Hashtbl.mem min_def rep) then
      Hashtbl.replace min_def rep d
  done;
  let reps =
    Hashtbl.fold (fun rep _ acc -> rep :: acc) vreg_of_rep []
    |> List.sort (fun a b ->
         Int.compare (Hashtbl.find min_def a) (Hashtbl.find min_def b))
  in
  let web_of_rep = Hashtbl.create 64 in
  let webs =
    List.mapi
      (fun w_id rep ->
        Hashtbl.replace web_of_rep rep w_id;
        let v = Hashtbl.find vreg_of_rep rep in
        let vreg =
          if v < p.Proc.next_int then Reg.int v
          else Reg.flt (v - p.Proc.next_int)
        in
        let sites tbl =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl rep))
        in
        { Webs.w_id;
          cls = vreg.Reg.cls;
          vreg;
          def_sites = sites def_sites;
          use_sites = sites use_sites;
          has_entry_def = Hashtbl.mem entry rep;
          spill_temp = is_spill_vreg vreg })
      reps
    |> Array.of_list
  in
  let to_web (v, rep) = v, Hashtbl.find web_of_rep rep in
  { rw_webs = webs;
    rw_use_maps = Array.map (List.map to_web) use_maps;
    rw_def_maps =
      Array.init n_instr (fun i ->
        match Reaching_defs.def_at rd i with
        | None -> []
        | Some d -> [ to_web (Reaching_defs.vreg_of rd d, find d) ]) }

(* The table [Webs.build] produced, read back through its interface, is
   the reference's: same webs, and at every instruction the same web for
   each register occurrence and the same per-instruction web lists. *)
let webs_match_reference (p : Proc.t) =
  let cfg = Cfg.build p.Proc.code in
  let is_spill_vreg (r : Reg.t) = r.Reg.id mod 5 = 0 in
  let got = Webs.build p cfg ~is_spill_vreg in
  let want = reference_webs p cfg ~is_spill_vreg in
  let reg_of v =
    if v < p.Proc.next_int then Reg.int v else Reg.flt (v - p.Proc.next_int)
  in
  Webs.webs got = want.rw_webs
  && List.for_all
       (fun i ->
         List.for_all
           (fun (v, w) -> Webs.use_web got i (reg_of v) = w)
           want.rw_use_maps.(i)
         && List.for_all
              (fun (v, w) -> Webs.def_web got i (reg_of v) = w)
              want.rw_def_maps.(i)
         && Webs.uses_at got i
            = List.sort_uniq Int.compare (List.map snd want.rw_use_maps.(i))
         && Webs.defs_at got i = List.map snd want.rw_def_maps.(i))
       (List.init (Array.length p.Proc.code) Fun.id)

let prop_webs_match_reference =
  QCheck.Test.make ~name:"webs build matches the hash-table reference"
    ~count:40
    QCheck.(triple (int_bound 1000000) (int_range 1 40) bool)
    (fun (seed, size, optimize) ->
      let procs = Codegen.compile_source (Progen.generate ~seed ~size) in
      if optimize then Ra_opt.Opt.optimize_all procs;
      List.for_all webs_match_reference procs)

let webs_match_reference_on_suite () =
  List.iter
    (fun program ->
      List.iter
        (fun (p : Proc.t) ->
          Alcotest.(check bool)
            (p.Proc.name ^ " matches the reference")
            true (webs_match_reference p))
        (Ra_programs.Suite.compile program))
    Ra_programs.Suite.all

let suites =
  [ ( "analysis.liveness",
      [ Alcotest.test_case "straight line" `Quick liveness_straight_line;
        Alcotest.test_case "branch" `Quick liveness_branch;
        Alcotest.test_case "loop" `Quick liveness_loop;
        qtest prop_liveness_matches_naive ] );
    ( "analysis.liveness_update",
      [ Alcotest.test_case "propagates to clean blocks" `Quick
          update_propagates_to_clean_blocks;
        Alcotest.test_case "retires ids everywhere" `Quick
          update_retires_ids_everywhere;
        Alcotest.test_case "noop is identity" `Quick update_noop_is_identity;
        qtest prop_update_extremes_match_compute ] );
    ( "analysis.live_refresh",
      [ Alcotest.test_case "merge chains match compute" `Quick
          refresh_chains_match_compute ] );
    ( "analysis.dominators",
      [ Alcotest.test_case "diamond" `Quick dominators_diamond;
        qtest prop_dominators_match_naive ] );
    ( "analysis.loops",
      [ Alcotest.test_case "nesting agrees with codegen" `Quick
          loops_nesting_agrees_with_codegen;
        qtest prop_loop_depth_matches_syntactic ] );
    ( "analysis.webs",
      [ Alcotest.test_case "split disjoint lifetimes" `Quick
          webs_split_disjoint_lifetimes;
        Alcotest.test_case "join at merge" `Quick webs_join_at_merge;
        Alcotest.test_case "args have entry defs" `Quick
          webs_args_have_entry_defs;
        Alcotest.test_case "spill temp flag" `Quick webs_spill_temp_flag;
        Alcotest.test_case "rebuild noop is identity" `Quick
          webs_rebuild_noop_is_identity;
        Alcotest.test_case "suite matches the reference" `Quick
          webs_match_reference_on_suite;
        qtest prop_webs_match_reference ] ) ]
