open Ra_ir

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

(* One state for the whole procedure, cleared per block: register value
   numbers live in an array by vreg index, valid only where stamped with
   the current block. *)
type state = {
  mutable next_vn : int;
  mutable block : int;
  index : Reg.t -> int; (* {!Ra_analysis.Liveness.vreg_index} *)
  reg_vn : int array;
  reg_block : int array;
  exprs : (key, int * Reg.t) Hashtbl.t; (* key -> (vn, canonical register) *)
  loads : (int * int, int * Reg.t * Reg.t) Hashtbl.t;
    (* (base vn, index vn) -> (vn, register holding the value, base
       register, for kills) *)
}

let fresh st =
  let v = st.next_vn in
  st.next_vn <- v + 1;
  v

let set_vn st (r : Reg.t) v =
  let x = st.index r in
  st.reg_vn.(x) <- v;
  st.reg_block.(x) <- st.block

let vn_of st (r : Reg.t) =
  let x = st.index r in
  if st.reg_block.(x) = st.block then st.reg_vn.(x)
  else begin
    let v = fresh st in
    set_vn st r v;
    v
  end

(* Is [c]'s recorded value still what the table says? A later redefinition
   of the canonical register changes its vn. *)
let still_holds st (c : Reg.t) vn = vn_of st c = vn

let run (proc : Proc.t) : int =
  let alias = Alias.compute proc in
  let cfg = Cfg.build proc.code in
  let rewritten = ref 0 in
  let code = Array.copy proc.code in
  let n_vregs = max 1 (proc.next_int + proc.next_flt) in
  let st =
    { next_vn = 0;
      block = -1;
      index = Ra_analysis.Liveness.vreg_index proc;
      reg_vn = Array.make n_vregs 0;
      reg_block = Array.make n_vregs (-1);
      exprs = Hashtbl.create 64;
      loads = Hashtbl.create 32 }
  in
  Array.iter
    (fun (block : Cfg.block) ->
      st.next_vn <- 0;
      st.block <- block.bindex;
      Hashtbl.clear st.exprs;
      Hashtbl.clear st.loads;
      let kill_loads_may_alias base =
        let doomed =
          Hashtbl.fold
            (fun k (_, _, b) acc ->
              if Alias.may_alias alias b base then k :: acc else acc)
            st.loads []
        in
        List.iter (Hashtbl.remove st.loads) doomed
      in
      let kill_all_loads () = Hashtbl.clear st.loads in
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
           | Some (vn, c, _) when still_holds st c vn && c.cls = d.cls ->
             if not (Reg.equal c d) then begin
               code.(i) <- { (code.(i)) with Proc.ins = Instr.Mov (d, c) };
               incr rewritten
             end;
             set_vn st d vn
           | Some _ | None ->
             let vn = fresh st in
             set_vn st d vn;
             Hashtbl.replace st.loads (kb, ki) (vn, d, base))
        | Instr.Store (base, idx, s) ->
          let kb = vn_of st base and ki = vn_of st idx in
          kill_loads_may_alias base;
          (* store-to-load forwarding: the slot now holds s's value *)
          Hashtbl.replace st.loads (kb, ki) (vn_of st s, s, base)
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
