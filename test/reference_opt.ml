(* The optimizer as it stood before its passes learned to analyse each
   procedure once: per-block hashtable value numbering, LICM that
   re-analyses the whole procedure after every loop it hoists, and DCE
   that rebuilds the CFG and re-solves liveness after every sweep. The
   equivalence properties in [Test_opt] hold {!Ra_opt.Opt.optimize} to
   exactly this output, instruction for instruction and count for
   count. *)

open Ra_ir
open Ra_analysis
module Alias = Ra_opt.Alias

module Local_cse = struct
  (* Value-numbering keys for pure computations. *)
  type key =
    | Kint of int
    | Kflt of int64 (* bit pattern, so NaNs/negative zero are exact *)
    | Kun of Instr.unop * int
    | Kbin of Instr.binop * int * int
    | Kdim of int * int

  let commutative : Instr.binop -> bool = function
    | Instr.Iadd | Instr.Imul | Instr.Imin | Instr.Imax
    | Instr.Fadd | Instr.Fmul | Instr.Fmin | Instr.Fmax -> true
    | Instr.Isub | Instr.Idiv | Instr.Irem | Instr.Fsub | Instr.Fdiv
    | Instr.Fsign -> false

  type state = {
    mutable next_vn : int;
    reg_vn : (int * Reg.cls, int) Hashtbl.t;
    exprs : (key, int * Reg.t) Hashtbl.t; (* key -> (vn, canonical register) *)
    loads : (int * int, int * Reg.t) Hashtbl.t;
      (* (base vn, index vn) -> (vn, register holding the value) *)
    load_bases : (int * int, Reg.t) Hashtbl.t; (* remembers base for kills *)
  }

  let fresh st =
    let v = st.next_vn in
    st.next_vn <- v + 1;
    v

  let vn_of st (r : Reg.t) =
    match Hashtbl.find_opt st.reg_vn (r.id, r.cls) with
    | Some v -> v
    | None ->
      let v = fresh st in
      Hashtbl.replace st.reg_vn (r.id, r.cls) v;
      v

  let set_vn st (r : Reg.t) v = Hashtbl.replace st.reg_vn (r.id, r.cls) v

  (* Is [c]'s recorded value still what the table says? A later redefinition
     of the canonical register changes its vn. *)
  let still_holds st (c : Reg.t) vn = vn_of st c = vn

  let run (proc : Proc.t) : int =
    let alias = Alias.compute proc in
    let cfg = Cfg.build proc.code in
    let rewritten = ref 0 in
    let code = Array.copy proc.code in
    Array.iter
      (fun (block : Cfg.block) ->
        let st =
          { next_vn = 0;
            reg_vn = Hashtbl.create 64;
            exprs = Hashtbl.create 64;
            loads = Hashtbl.create 32;
            load_bases = Hashtbl.create 32 }
        in
        let kill_loads_may_alias base =
          let doomed =
            Hashtbl.fold
              (fun k _ acc ->
                let b = Hashtbl.find st.load_bases k in
                if Alias.may_alias alias b base then k :: acc else acc)
              st.loads []
          in
          List.iter
            (fun k ->
              Hashtbl.remove st.loads k;
              Hashtbl.remove st.load_bases k)
            doomed
        in
        let kill_all_loads () =
          Hashtbl.reset st.loads;
          Hashtbl.reset st.load_bases
        in
        let try_pure i (d : Reg.t) key =
          match Hashtbl.find_opt st.exprs key with
          | Some (vn, c) when still_holds st c vn && not (Reg.equal c d) ->
            code.(i) <- { (code.(i)) with Proc.ins = Instr.Mov (d, c) };
            incr rewritten;
            set_vn st d vn
          | Some (vn, c) when still_holds st c vn ->
            set_vn st d vn
          | Some _ | None ->
            let vn = fresh st in
            set_vn st d vn;
            Hashtbl.replace st.exprs key (vn, d)
        in
        for i = block.first to block.last do
          match (code.(i)).Proc.ins with
          | Instr.Label _ | Instr.Br _ -> ()
          | Instr.Cbr (_, a, b, _, _) ->
            ignore (vn_of st a);
            ignore (vn_of st b)
          | Instr.Li (d, n) -> try_pure i d (Kint n)
          | Instr.Lf (d, f) -> try_pure i d (Kflt (Int64.bits_of_float f))
          | Instr.Mov (d, s) ->
            (* copy propagation inside the value table *)
            set_vn st d (vn_of st s)
          | Instr.Unop (op, d, s) -> try_pure i d (Kun (op, vn_of st s))
          | Instr.Binop (op, d, a, b) ->
            let va = vn_of st a and vb = vn_of st b in
            let va, vb =
              if commutative op && vb < va then vb, va else va, vb
            in
            try_pure i d (Kbin (op, va, vb))
          | Instr.Dim (d, base, k) -> try_pure i d (Kdim (vn_of st base, k))
          | Instr.Load (d, base, idx) ->
            let kb = vn_of st base and ki = vn_of st idx in
            (match Hashtbl.find_opt st.loads (kb, ki) with
             | Some (vn, c) when still_holds st c vn && c.cls = d.cls ->
               if not (Reg.equal c d) then begin
                 code.(i) <- { (code.(i)) with Proc.ins = Instr.Mov (d, c) };
                 incr rewritten
               end;
               set_vn st d vn
             | Some _ | None ->
               let vn = fresh st in
               set_vn st d vn;
               Hashtbl.replace st.loads (kb, ki) (vn, d);
               Hashtbl.replace st.load_bases (kb, ki) base)
          | Instr.Store (base, idx, s) ->
            let kb = vn_of st base and ki = vn_of st idx in
            kill_loads_may_alias base;
            (* store-to-load forwarding: the slot now holds s's value *)
            Hashtbl.replace st.loads (kb, ki) (vn_of st s, s);
            Hashtbl.replace st.load_bases (kb, ki) base
          | Instr.Alloc (d, _, _, _) ->
            set_vn st d (fresh st)
          | Instr.Call { ret; _ } ->
            kill_all_loads ();
            (match ret with
             | Some d -> set_vn st d (fresh st)
             | None -> ())
          | Instr.Ret _ -> ()
          | Instr.Spill_st _ | Instr.Spill_ld _ ->
            (* spill code never exists before allocation; stay conservative *)
            kill_all_loads ()
        done)
      cfg.blocks;
    proc.code <- code;
    !rewritten
end

module Licm = struct
  (* One hoisting round: analyze the procedure, pick the innermost loop with
     hoistable instructions, hoist them. Returns how many were hoisted. *)
  let hoist_once (proc : Proc.t) : int =
    let code = proc.code in
    let n = Array.length code in
    let cfg = Cfg.build code in
    let doms = Dominators.compute cfg in
    let loops = Loops.compute cfg doms in
    let alias = Alias.compute proc in
    (* global def counts per (id, cls) *)
    let def_count = Hashtbl.create 64 in
    let bump r =
      let key = (r.Reg.id, r.Reg.cls) in
      Hashtbl.replace def_count key
        (1 + Option.value ~default:0 (Hashtbl.find_opt def_count key))
    in
    Array.iter (fun (nd : Proc.node) -> List.iter bump (Instr.defs nd.ins)) code;
    List.iter bump proc.args;
    let single_def r = Hashtbl.find_opt def_count (r.Reg.id, r.Reg.cls) = Some 1 in
    let try_loop (l : Loops.loop) =
      let in_loop = Array.make (Cfg.n_blocks cfg) false in
      List.iter (fun b -> in_loop.(b) <- true) l.body;
      let header_block = cfg.blocks.(l.header) in
      (* the unique entry must fall through from the previous block *)
      let outside_preds =
        List.filter (fun p -> not in_loop.(p)) header_block.preds
      in
      let entry_ok =
        match outside_preds with
        | [ p ] ->
          cfg.blocks.(p).last + 1 = header_block.first
          && not (Instr.ends_block (code.(cfg.blocks.(p).last)).ins)
        | [] | _ :: _ :: _ -> false
      in
      if not entry_ok then []
      else begin
        (* defs occurring inside the loop *)
        let defined_in_loop = Hashtbl.create 64 in
        let loop_has_call = ref false in
        let loop_stores = ref [] in
        List.iter
          (fun b ->
            let blk = cfg.blocks.(b) in
            for i = blk.first to blk.last do
              List.iter
                (fun r -> Hashtbl.replace defined_in_loop (r.Reg.id, r.Reg.cls) ())
                (Instr.defs (code.(i)).ins);
              match (code.(i)).ins with
              | Instr.Call _ -> loop_has_call := true
              | Instr.Store (base, _, _) -> loop_stores := base :: !loop_stores
              | _ -> ()
            done)
          l.body;
        let hoisted = Hashtbl.create 16 in (* instr index -> unit *)
        let hoisted_defs = Hashtbl.create 16 in
        let invariant_operand r =
          (not (Hashtbl.mem defined_in_loop (r.Reg.id, r.Reg.cls)))
          || Hashtbl.mem hoisted_defs (r.Reg.id, r.Reg.cls)
        in
        let load_safe base =
          (not !loop_has_call)
          && not (List.exists (fun s -> Alias.may_alias alias s base) !loop_stores)
        in
        let candidate i =
          if Hashtbl.mem hoisted i then false
          else begin
            let node = code.(i) in
            let pure_ok =
              match node.ins with
              | Instr.Li _ | Instr.Lf _ | Instr.Dim _ -> true
              (* single-def copies (CSE leftovers) hoist like any other
                 pure computation *)
              | Instr.Mov _ -> true
              | Instr.Unop (_, _, _) -> true
              | Instr.Binop (op, _, _, _) ->
                (match op with
                 | Instr.Idiv | Instr.Irem -> false (* may trap *)
                 | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Imin
                 | Instr.Imax | Instr.Fadd | Instr.Fsub | Instr.Fmul
                 | Instr.Fdiv | Instr.Fmin | Instr.Fmax | Instr.Fsign -> true)
              | Instr.Load (_, base, _) -> load_safe base
              | Instr.Label _ | Instr.Store _ | Instr.Alloc _
              | Instr.Br _ | Instr.Cbr _ | Instr.Call _ | Instr.Ret _
              | Instr.Spill_st _ | Instr.Spill_ld _ -> false
            in
            pure_ok
            && (match Instr.defs node.ins with
                | [ d ] -> single_def d
                | [] | _ :: _ :: _ -> false)
            && List.for_all invariant_operand (Instr.uses node.ins)
          end
        in
        (* fixpoint, preserving code order among hoisted instructions *)
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun b ->
              let blk = cfg.blocks.(b) in
              for i = blk.first to blk.last do
                if candidate i then begin
                  Hashtbl.replace hoisted i ();
                  List.iter
                    (fun r -> Hashtbl.replace hoisted_defs (r.Reg.id, r.Reg.cls) ())
                    (Instr.defs (code.(i)).ins);
                  changed := true
                end
              done)
            l.body
        done;
        Hashtbl.fold (fun i () acc -> i :: acc) hoisted []
        |> List.sort compare
        |> List.map (fun i -> i, header_block.first)
      end
    in
    (* innermost (smallest) loops first; hoist from the first fruitful one *)
    let all_loops =
      Loops.loops loops
      |> List.sort (fun a b ->
           compare
             (List.length a.Loops.body, a.Loops.header)
             (List.length b.Loops.body, b.Loops.header))
    in
    let rec first_fruitful = function
      | [] -> []
      | l :: rest ->
        (match try_loop l with
         | [] -> first_fruitful rest
         | moves -> moves)
    in
    match first_fruitful all_loops with
    | [] -> 0
    | moves ->
      let target = snd (List.hd moves) in
      let moved = List.map fst moves in
      let is_moved = Hashtbl.create 16 in
      List.iter (fun i -> Hashtbl.replace is_moved i ()) moved;
      let out = ref [] in
      for i = n - 1 downto 0 do
        if i = target then begin
          (* the header label itself, preceded by the hoisted code *)
          out := code.(i) :: !out;
          List.iter
            (fun m ->
              out :=
                { (code.(m)) with Proc.depth = max 0 ((code.(target)).Proc.depth) }
                :: !out)
            (List.rev moved)
        end
        else if not (Hashtbl.mem is_moved i) then out := code.(i) :: !out
      done;
      proc.code <- Array.of_list !out;
      List.length moved

  let run proc =
    let total = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let h = hoist_once proc in
      total := !total + h;
      if h = 0 then continue_ := false
    done;
    !total
end

module Dce = struct
  let removable (ins : Instr.t) =
    match ins with
    | Instr.Li _ | Instr.Lf _ | Instr.Mov _ | Instr.Unop _ | Instr.Binop _
    | Instr.Dim _ | Instr.Load _ | Instr.Alloc _ -> true
    | Instr.Label _ | Instr.Store _ | Instr.Br _ | Instr.Cbr _ | Instr.Call _
    | Instr.Ret _ | Instr.Spill_st _ | Instr.Spill_ld _ -> false

  let sweep_once (proc : Proc.t) : int =
    let cfg = Cfg.build proc.code in
    let live =
      Liveness.compute ~code:proc.code ~cfg (Liveness.vreg_numbering proc)
    in
    let index = Liveness.vreg_index proc in
    let dead = Hashtbl.create 16 in
    for b = 0 to Cfg.n_blocks cfg - 1 do
      Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
        let node = proc.code.(i) in
        if removable node.ins then
          match Instr.defs node.ins with
          | [ d ] ->
            if not (Ra_support.Bitset.mem live_after (index d)) then
              Hashtbl.replace dead i ()
          | [] | _ :: _ :: _ -> ())
    done;
    if Hashtbl.length dead = 0 then 0
    else begin
      let out = ref [] in
      for i = Array.length proc.code - 1 downto 0 do
        if not (Hashtbl.mem dead i) then out := proc.code.(i) :: !out
      done;
      proc.code <- Array.of_list !out;
      Hashtbl.length dead
    end

  let run proc =
    let total = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let removed = sweep_once proc in
      total := !total + removed;
      if removed = 0 then continue_ := false
    done;
    !total
end

(* CSE -> LICM -> CSE -> DCE, as {!Ra_opt.Opt.optimize}. *)
let reference_optimize proc : Ra_opt.Opt.stats =
  let cse1 = Local_cse.run proc in
  let hoisted = Licm.run proc in
  let cse2 = Local_cse.run proc in
  let dead_removed = Dce.run proc in
  { Ra_opt.Opt.cse_rewrites = cse1 + cse2; hoisted; dead_removed }
