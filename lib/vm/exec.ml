open Ra_ir

exception Runtime_error of string
exception Out_of_fuel

type outcome = {
  result : Value.t option;
  cycles : int;
  instructions : int;
  output : string list;
}

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

type state = {
  procs : (string, Proc.t) Hashtbl.t;
  label_maps : (string, (int, int) Hashtbl.t) Hashtbl.t;
  mutable cycles : int;
  mutable instructions : int;
  mutable fuel : int;
  mutable rev_output : string list;
}

type frame = {
  iregs : Value.t array; (* Vint or Vagg only *)
  fregs : float array;
  slots : Value.t array;
}

let label_map state (proc : Proc.t) =
  match Hashtbl.find_opt state.label_maps proc.name with
  | Some m -> m
  | None ->
    let m = Hashtbl.create 16 in
    Array.iteri
      (fun i (node : Proc.node) ->
        match node.ins with
        | Instr.Label l -> Hashtbl.replace m l i
        | _ -> ())
      proc.code;
    Hashtbl.replace state.label_maps proc.name m;
    m

let get_int frame (r : Reg.t) =
  match r.cls with
  | Reg.Flt_reg -> error "int read from float register %s" (Reg.to_string r)
  | Reg.Int_reg ->
    (match frame.iregs.(r.id) with
     | Value.Vint n -> n
     | Value.Vagg _ -> error "aggregate used as int in %s" (Reg.to_string r)
     | Value.Vflt _ -> assert false)

let get_agg frame (r : Reg.t) =
  match r.cls with
  | Reg.Flt_reg -> error "aggregate read from float register"
  | Reg.Int_reg ->
    (match frame.iregs.(r.id) with
     | Value.Vagg a -> a
     | Value.Vint _ -> error "int used as aggregate in %s" (Reg.to_string r)
     | Value.Vflt _ -> assert false)

let get_flt frame (r : Reg.t) =
  match r.cls with
  | Reg.Int_reg -> error "float read from int register %s" (Reg.to_string r)
  | Reg.Flt_reg -> frame.fregs.(r.id)

let get_value frame (r : Reg.t) =
  match r.cls with
  | Reg.Int_reg -> frame.iregs.(r.id)
  | Reg.Flt_reg -> Value.Vflt frame.fregs.(r.id)

let set_value frame (r : Reg.t) (v : Value.t) =
  match r.cls, v with
  | Reg.Int_reg, (Value.Vint _ | Value.Vagg _) -> frame.iregs.(r.id) <- v
  | Reg.Flt_reg, Value.Vflt f -> frame.fregs.(r.id) <- f
  | Reg.Int_reg, Value.Vflt _ -> error "float written to int register"
  | Reg.Flt_reg, (Value.Vint _ | Value.Vagg _) ->
    error "non-float written to float register"

let set_int frame (r : Reg.t) n = set_value frame r (Value.Vint n)
let set_flt frame (r : Reg.t) f = set_value frame r (Value.Vflt f)

let eval_iunop op a =
  match op with
  | Instr.Ineg -> -a
  | Instr.Iabs -> abs a
  | Instr.Fneg | Instr.Fabs | Instr.Fsqrt | Instr.Itof | Instr.Ftoi ->
    assert false

let eval_ibinop op a b =
  match op with
  | Instr.Iadd -> a + b
  | Instr.Isub -> a - b
  | Instr.Imul -> a * b
  | Instr.Idiv -> if b = 0 then error "integer division by zero" else a / b
  | Instr.Irem -> if b = 0 then error "integer remainder by zero" else a mod b
  | Instr.Imin -> min a b
  | Instr.Imax -> max a b
  | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv | Instr.Fmin
  | Instr.Fmax | Instr.Fsign -> assert false

let eval_fbinop op a b =
  match op with
  | Instr.Fadd -> a +. b
  | Instr.Fsub -> a -. b
  | Instr.Fmul -> a *. b
  | Instr.Fdiv -> a /. b
  | Instr.Fmin -> Float.min a b
  | Instr.Fmax -> Float.max a b
  | Instr.Fsign -> if b >= 0.0 then Float.abs a else -.Float.abs a
  | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Idiv | Instr.Irem
  | Instr.Imin | Instr.Imax -> assert false

let compare_values op (a : float) (b : float) =
  (* works for ints via float embedding? no — keep separate paths *)
  match op with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let compare_ints op a b =
  match op with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let elt_index (a : Value.aggregate) idx =
  let n = Value.length a in
  if idx < 0 || idx >= n then
    error "index %d out of bounds for aggregate of %d elements" idx n;
  idx

let rec call state name (args : Value.t list) : Value.t option =
  match name with
  | "print_int" ->
    (match args with
     | [ Value.Vint n ] ->
       state.rev_output <- string_of_int n :: state.rev_output;
       None
     | _ -> error "print_int: bad arguments")
  | "print_float" ->
    (match args with
     | [ Value.Vflt f ] ->
       state.rev_output <- Printf.sprintf "%.6g" f :: state.rev_output;
       None
     | _ -> error "print_float: bad arguments")
  | _ ->
    let proc =
      match Hashtbl.find_opt state.procs name with
      | Some p -> p
      | None -> error "unknown procedure %s" name
    in
    if List.length args <> List.length proc.args then
      error "%s: expected %d arguments, got %d" name
        (List.length proc.args) (List.length args);
    let frame =
      { iregs =
          Array.make (max 1 (Proc.max_reg_id proc Reg.Int_reg)) (Value.Vint 0);
        fregs = Array.make (max 1 (Proc.max_reg_id proc Reg.Flt_reg)) 0.0;
        slots = Array.make (max 1 proc.spill_slots) (Value.Vint 0) }
    in
    List.iter2 (fun r v -> set_value frame r v) proc.args args;
    (* stack-passed (spilled) arguments also arrive in their frame slot *)
    List.iter
      (fun (pos, slot) -> frame.slots.(slot) <- List.nth args pos)
      proc.arg_spills;
    let labels = label_map state proc in
    let code = proc.code in
    let n = Array.length code in
    let goto l =
      match Hashtbl.find_opt labels l with
      | Some i -> i
      | None -> error "%s: undefined label L%d" name l
    in
    let rec step pc : Value.t option =
      if pc >= n then
        if proc.ret_cls = None then None
        else error "%s: fell off the end without returning a value" name
      else begin
        let node = code.(pc) in
        state.cycles <- state.cycles + Cost_model.cost node.ins;
        if not (Instr.is_label node.ins) then begin
          state.instructions <- state.instructions + 1;
          state.fuel <- state.fuel - 1;
          if state.fuel <= 0 then raise Out_of_fuel
        end;
        match node.ins with
        | Instr.Label _ -> step (pc + 1)
        | Instr.Li (d, k) -> set_int frame d k; step (pc + 1)
        | Instr.Lf (d, f) -> set_flt frame d f; step (pc + 1)
        | Instr.Mov (d, s) -> set_value frame d (get_value frame s); step (pc + 1)
        | Instr.Unop (op, d, s) ->
          (match op with
           | Instr.Ineg | Instr.Iabs ->
             set_int frame d (eval_iunop op (get_int frame s))
           | Instr.Fneg -> set_flt frame d (-.get_flt frame s)
           | Instr.Fabs -> set_flt frame d (Float.abs (get_flt frame s))
           | Instr.Fsqrt ->
             let x = get_flt frame s in
             if x < 0.0 then error "sqrt of negative value %g" x;
             set_flt frame d (sqrt x)
           | Instr.Itof -> set_flt frame d (float_of_int (get_int frame s))
           | Instr.Ftoi -> set_int frame d (int_of_float (get_flt frame s)));
          step (pc + 1)
        | Instr.Binop (op, d, a, b) ->
          (match op with
           | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Idiv | Instr.Irem
           | Instr.Imin | Instr.Imax ->
             set_int frame d (eval_ibinop op (get_int frame a) (get_int frame b))
           | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv | Instr.Fmin
           | Instr.Fmax | Instr.Fsign ->
             set_flt frame d (eval_fbinop op (get_flt frame a) (get_flt frame b)));
          step (pc + 1)
        | Instr.Load (d, base, idx) ->
          let a = get_agg frame base in
          let i = elt_index a (get_int frame idx) in
          (match a.tag, d.cls with
           | Instr.Eint, Reg.Int_reg -> set_int frame d a.idata.(i)
           | Instr.Eflt, Reg.Flt_reg -> set_flt frame d a.fdata.(i)
           | Instr.Eint, Reg.Flt_reg | Instr.Eflt, Reg.Int_reg ->
             error "load class mismatch");
          step (pc + 1)
        | Instr.Store (base, idx, s) ->
          let a = get_agg frame base in
          let i = elt_index a (get_int frame idx) in
          (match a.tag, s.cls with
           | Instr.Eint, Reg.Int_reg -> a.idata.(i) <- get_int frame s
           | Instr.Eflt, Reg.Flt_reg -> a.fdata.(i) <- get_flt frame s
           | Instr.Eint, Reg.Flt_reg | Instr.Eflt, Reg.Int_reg ->
             error "store class mismatch");
          step (pc + 1)
        | Instr.Alloc (d, elem, d1, d2) ->
          let dim1 = get_int frame d1 in
          if dim1 < 0 then error "negative aggregate dimension %d" dim1;
          let agg =
            match d2 with
            | None -> Value.make_array elem dim1
            | Some d2 ->
              let dim2 = get_int frame d2 in
              if dim2 < 0 then error "negative aggregate dimension %d" dim2;
              Value.make_matrix elem ~rows:dim1 ~cols:dim2
          in
          set_value frame d (Value.Vagg agg);
          step (pc + 1)
        | Instr.Dim (d, base, k) ->
          let a = get_agg frame base in
          let v =
            match k, a.cols with
            | 1, None -> a.rows
            | 1, Some _ -> a.rows
            | 2, Some c -> c
            | 2, None -> error "dim2 of a 1-d array"
            | _, (Some _ | None) -> error "bad dimension selector %d" k
          in
          set_int frame d v;
          step (pc + 1)
        | Instr.Br l -> step (goto l)
        | Instr.Cbr (op, a, b, t, f) ->
          let taken =
            match a.cls with
            | Reg.Int_reg -> compare_ints op (get_int frame a) (get_int frame b)
            | Reg.Flt_reg -> compare_values op (get_flt frame a) (get_flt frame b)
          in
          step (goto (if taken then t else f))
        | Instr.Call { callee; args; ret } ->
          let argv = List.map (get_value frame) args in
          let res = call state callee argv in
          (match ret, res with
           | None, _ -> ()
           | Some d, Some v -> set_value frame d v
           | Some _, None -> error "%s returned no value" callee);
          step (pc + 1)
        | Instr.Ret None -> None
        | Instr.Ret (Some r) -> Some (get_value frame r)
        | Instr.Spill_st (slot, s) ->
          frame.slots.(slot) <- get_value frame s;
          step (pc + 1)
        | Instr.Spill_ld (d, slot) ->
          (* A slot is only ever stored by its own (single-class) live
             range. A class mismatch can therefore only be the pristine
             slot default: the program reads a value it never wrote, which
             the unallocated code would satisfy from the zero-initialized
             register file. Give the same garbage: a class-typed zero. *)
          (match d.cls, frame.slots.(slot) with
           | Reg.Flt_reg, Value.Vflt f -> frame.fregs.(d.id) <- f
           | Reg.Flt_reg, (Value.Vint _ | Value.Vagg _) ->
             frame.fregs.(d.id) <- 0.0
           | Reg.Int_reg, (Value.Vint _ | Value.Vagg _ as v) ->
             frame.iregs.(d.id) <- v
           | Reg.Int_reg, Value.Vflt _ -> frame.iregs.(d.id) <- Value.Vint 0);
          step (pc + 1)
      end
    in
    let res = step 0 in
    (match res, proc.ret_cls with
     | None, Some _ ->
       error "%s: returned without a value" name
     | (Some _ | None), _ -> ());
    res

let run ?(fuel = 200_000_000) ~procs ~entry ~args () : outcome =
  let table = Hashtbl.create 16 in
  List.iter (fun (p : Proc.t) -> Hashtbl.replace table p.name p) procs;
  let state =
    { procs = table;
      label_maps = Hashtbl.create 16;
      cycles = 0;
      instructions = 0;
      fuel;
      rev_output = [] }
  in
  let result = call state entry args in
  { result;
    cycles = state.cycles;
    instructions = state.instructions;
    output = List.rev state.rev_output }
