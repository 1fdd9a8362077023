(* The four workloads: their inputs, the timed operation, and the checks
   that run outside it.

   One op is one (input, heuristic) pair. For a source input it is the
   whole compile: parse, typecheck, codegen, optimize every procedure,
   then [Batch.allocate_matrix] — the call [rralloc alloc/run/suite]
   makes. For a graph input it is one [Heuristic.run]. Verification and
   VM execution are checks outside the timed op. *)

open Ra_core
module Exec = Ra_vm.Exec
module Value = Ra_vm.Value
module Telemetry = Ra_support.Telemetry
module Lcg = Ra_support.Lcg

type kind = Suite | Synth_large | Synth_many | Graphs

let kinds = [ Suite; Synth_large; Synth_many; Graphs ]

let name = function
  | Suite -> "suite"
  | Synth_large -> "synth_large"
  | Synth_many -> "synth_many"
  | Graphs -> "graphs"

let of_name s = List.find_opt (fun k -> name k = s) kinds

let heuristics = [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula; Heuristic.Irc ]

let machine = Machine.rt_pc

let regfile : Ra_check.Verify_alloc.regfile =
  { k_int = machine.Machine.int_regs;
    k_flt = machine.Machine.flt_regs;
    caller_save_int = machine.Machine.caller_save_int;
    caller_save_flt = machine.Machine.caller_save_flt }

(* Colors and precolored machine registers of the synthetic graphs. *)
let graph_k = 16

(* Rounds a run makes at least: each round runs every cell once, so the
   suite's 23 cells need five to put ten samples beyond p90. *)
let min_rounds = function Suite -> 5 | Synth_large | Synth_many | Graphs -> 1

type source = {
  text : string;
  entry : string;
  args : Value.t list;
  fuel : int;
  reference : Exec.outcome; (* the unoptimized virtual-register run *)
  ref_s : float;
}

(* A graph is kept as its recipe: 28 materialized 12,000-web graphs would
   hold most of a gigabyte, so each is generated when its visit comes. *)
type graph = {
  gen : seed:int -> n_nodes:int -> n_precolored:int -> avg_degree:int -> Synth_graph.t;
  seed : int;
  webs : int;
}

type body = Source of source | Graph of graph

type input = { label : string; body : body }

(* ---- inputs ---- *)

let now = Unix.gettimeofday

exception Bad_reference of string

(* The oracle is the VM on the same source's unoptimized virtual-register
   code: nothing the optimizer or the allocator does reaches it. A NaN
   result would compare unequal to everything and hide miscompiles. *)
let source_input ~label ~text ~entry ~args ~fuel =
  let procs = Ra_ir.Codegen.compile_source text in
  let t0 = now () in
  let reference = Exec.run ~fuel ~procs ~entry ~args () in
  let ref_s = now () -. t0 in
  (match reference.Exec.result with
   | Some (Value.Vflt f) when Float.is_nan f ->
     raise (Bad_reference (label ^ ": reference result is NaN"))
   | _ -> ());
  { label; body = Source { text; entry; args; fuel; reference; ref_s } }

(* The VM runs at benchmark scale, with two exceptions. EULER's
   arguments (128, 80) diverge to NaN after 3.1 M instructions, which
   leaves its checksum blind to float miscompiles; 20 steps stay finite.
   QUICKSORT's 200,000 elements made its seven VM runs a third of a
   suite run; 50,000 run the same code. *)
let vm_args (p : Ra_programs.Suite.program) ~smoke =
  if smoke then p.Ra_programs.Suite.test_args
  else
    match p.Ra_programs.Suite.pname with
    | "EULER" -> [ Value.Vint 128; Value.Vint 20 ]
    | "QUICKSORT" -> [ Value.Vint 50_000 ]
    | _ -> p.Ra_programs.Suite.driver_args

let suite_programs ~smoke =
  if smoke then [ Ra_programs.Suite.find "SIMPLEX"; Ra_programs.Suite.quicksort ]
  else Ra_programs.Suite.all

(* Matula's cost-blind election cannot allocate EULER's euler_main at
   k = 16: the op raises [Allocation_failure] every time. It is attempted
   once per run outside the measured ops, so the failure stays counted
   (fail.alloc) while the measured ops are ones that can succeed. *)
let known_failures = [ "EULER", Heuristic.Matula ]

let is_known_failure label h = List.mem (label, h) known_failures

let synth_seeds ~smoke = List.init (if smoke then 2 else 30) (fun i -> i + 1)

let graph_webs ~smoke = if smoke then 600 else 12_000

let graph_seeds ~smoke = List.init (if smoke then 1 else 14) (fun i -> i + 1)

(* The inputs are fixed: the run's seed orders the ops, so every seed
   measures the same work and the quality metrics repeat exactly. *)
let inputs kind ~smoke =
  match kind with
  | Suite ->
    List.map
      (fun (p : Ra_programs.Suite.program) ->
        source_input ~label:p.Ra_programs.Suite.pname ~text:p.Ra_programs.Suite.source
          ~entry:p.Ra_programs.Suite.driver ~args:(vm_args p ~smoke)
          ~fuel:p.Ra_programs.Suite.fuel)
      (suite_programs ~smoke)
  | Synth_large ->
    List.map
      (fun seed ->
        source_input
          ~label:(Printf.sprintf "synth_large#%d" seed)
          ~text:(Ra_programs.Synth.program ~seed ~size:(if smoke then 8 else 40))
          ~entry:"main" ~args:[] ~fuel:200_000_000)
      (synth_seeds ~smoke)
  | Synth_many ->
    List.map
      (fun seed ->
        source_input
          ~label:(Printf.sprintf "synth_many#%d" seed)
          ~text:
            (Ra_programs.Synth.many ~seed ~size:4
               ~routines:(if smoke then 4 else 40))
          ~entry:"main" ~args:[] ~fuel:200_000_000)
      (synth_seeds ~smoke)
  | Graphs ->
    List.concat_map
      (fun seed ->
        List.map
          (fun (kind, gen) ->
            { label = Printf.sprintf "%s#%d" kind seed;
              body = Graph { gen; seed; webs = graph_webs ~smoke } })
          [ "power_law", Synth_graph.power_law; "geometric", Synth_graph.geometric ])
      (graph_seeds ~smoke)

(* What an op needs from its input, prepared outside the op: a graph is
   materialized once per visit and shared by the four heuristics
   ([Heuristic.run] leaves the graph unchanged; the digest check would
   catch one that did not, since the heuristic order is shuffled). *)
type prepared = P_source of source | P_graph of Igraph.t * float array

let prepare input =
  match input.body with
  | Source s -> P_source s
  | Graph g ->
    let csr = g.gen ~seed:g.seed ~n_nodes:g.webs ~n_precolored:graph_k ~avg_degree:32 in
    (* spill costs seeded in [1, 1000] *)
    let rng = Lcg.create ~seed:g.seed in
    P_graph
      ( Synth_graph.to_igraph csr,
        Array.init g.webs (fun _ -> float (Lcg.int_in rng ~lo:1 ~hi:1000)) )

(* ---- the op ---- *)

(* The domains a workload's ops run on: the shared scheduler's for the
   allocation matrix, the shared pool's for [Heuristic.run]. *)
let op_pool = function
  | Graphs -> Batch.default_pool ()
  | Suite | Synth_large | Synth_many ->
    let s = Ra_support.Scheduler.global () in
    if Ra_support.Scheduler.jobs s > 1 then Some (Ra_support.Scheduler.pool s) else None

type outcome =
  | Allocated of Allocator.result list
  | Colored of Heuristic.outcome
  | Alloc_failed of string

type op = {
  wall : float;
  outcome : outcome;
  spans : Trace.span list; (* the op's root span first *)
  sink : (Telemetry.t * float) option; (* a traced op's sink and its epoch *)
}

(* Per-layer sums of a traced phase, by metric name. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) name v =
  Hashtbl.replace acc name (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))

let instrs procs =
  float (List.fold_left (fun n p -> n + Ra_ir.Proc.instr_count p) 0 procs)

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words, s.Gc.major_words

(* [run ~id ~traced ~acc prepared h] times one op. A traced op gets a
   fresh telemetry sink threaded into the allocator, and adds its layer
   counts to [acc]; an untraced one records only its outer spans. *)
let run ~id ~traced ~(acc : acc) prepared h =
  let sink =
    if traced then begin
      let before = now () in
      let t = Telemetry.create () in
      Some (t, (before +. now ()) /. 2.0)
    end
    else None
  in
  let tele = Option.map fst sink in
  (* graphs run on the shared pool, as the pipeline would pass it; a
     traced op attaches its sink there, as a context does *)
  let pool = match prepared with P_graph _ -> Batch.default_pool () | P_source _ -> None in
  (match pool, tele with
   | Some p, Some t -> Ra_support.Pool.set_telemetry p t
   | _ -> ());
  let domain = (Domain.self () :> int) in
  let spans = ref [] in
  let layer name f =
    let t0 = now () in
    let r = f () in
    spans := { Trace.name; op = id; parent = "op"; domain; t0; t1 = now () } :: !spans;
    r
  in
  let alloc f =
    let w0 = if traced then words () else (0.0, 0.0) in
    let r = layer "core.alloc" f in
    if traced then begin
      let minor, major = words () in
      add acc "core.minor_words" (minor -. fst w0);
      add acc "core.major_words" (major -. snd w0)
    end;
    r
  in
  let t0 = now () in
  let outcome =
    match prepared with
    | P_source s ->
      let ast = layer "frontend.parse" (fun () -> Ra_frontend.Parser.parse_program s.text) in
      let tast = layer "frontend.typecheck" (fun () -> Ra_frontend.Typecheck.check_program ast) in
      let procs = layer "ir.codegen" (fun () -> Ra_ir.Codegen.gen_program tast) in
      if traced then add acc "ir.instrs_out" (instrs procs);
      let stats = layer "opt.optimize" (fun () -> List.map Ra_opt.Opt.optimize procs) in
      if traced then begin
        List.iter
          (fun (st : Ra_opt.Opt.stats) ->
            add acc "opt.cse_rewrites" (float st.Ra_opt.Opt.cse_rewrites);
            add acc "opt.hoisted" (float st.Ra_opt.Opt.hoisted);
            add acc "opt.dead_removed" (float st.Ra_opt.Opt.dead_removed))
          stats;
        add acc "opt.instrs_out" (instrs procs)
      end;
      alloc (fun () ->
        match Batch.allocate_matrix ?tele machine [ h ] procs with
        | [ results ] -> Allocated results
        | _ -> assert false
        | exception Allocator.Allocation_failure msg -> Alloc_failed msg)
    | P_graph (ig, costs) ->
      alloc (fun () -> Colored (Heuristic.run ?pool ?tele h ig ~k:graph_k ~costs))
  in
  let t1 = now () in
  (* [Batch] attaches an enabled sink to the shared scheduler and leaves
     it there; detach both so untraced ops stay untraced *)
  if traced then begin
    Option.iter (fun p -> Ra_support.Pool.set_telemetry p Telemetry.null) pool;
    match prepared with
    | P_source _ ->
      Ra_support.Scheduler.set_telemetry (Ra_support.Scheduler.global ()) Telemetry.null
    | P_graph _ -> ()
  end;
  let root = { Trace.name = "op"; op = id; parent = ""; domain; t0; t1 } in
  { wall = t1 -. t0; outcome; spans = root :: List.rev !spans; sink }

(* Identical allocated code (or graph outcome) across reps, and between
   traced and untraced runs, is what makes one check stand for every rep
   of a cell. *)
let digest = function
  | Allocated rs ->
    Digest.string
      (String.concat "" (List.map (fun (r : Allocator.result) -> Ra_ir.Proc.to_string r.Allocator.proc) rs))
  | Colored o -> Digest.string (Marshal.to_string o [])
  | Alloc_failed msg -> Digest.string msg

(* ---- checks outside the op ---- *)

type failure = F_alloc | F_verify | F_output | F_nondeterministic

let failure_name = function
  | F_alloc -> "alloc"
  | F_verify -> "verify"
  | F_output -> "output"
  | F_nondeterministic -> "nondeterministic"

(* The quality of a cell that passed its checks. [cycles] is the VM's
   cycle count for source inputs; a bare graph has no code to run, so
   for graphs it is the cost model's estimate — every web's weighted
   accesses at one cycle plus the memory penalty on the spilled ones —
   and [code_size] counts the fewest spill instructions the spill set
   implies (one store and one reload per spilled web). *)
type quality = {
  spilled : int;
  code_size : int;
  cycles : float;
  spill_cost : float;
  spill_set : int list; (* graphs: the spilled webs, for the subset check *)
}

type verdict = Pass of quality | Fail of failure * string

type check_acc = {
  mutable verify_s : float;
  mutable verified : int;
  mutable errors : int;
  mutable exec_s : float;
  mutable executed : int;
  mutable instructions : int;
}

let check_acc () =
  { verify_s = 0.0; verified = 0; errors = 0; exec_s = 0.0; executed = 0; instructions = 0 }

let same_result a b =
  match a, b with
  | Some (Value.Vflt x), Some (Value.Vflt y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | a, b -> a = b

let check_source ca (s : source) results =
  let procs = List.map (fun (r : Allocator.result) -> r.Allocator.proc) results in
  let t0 = now () in
  let errors =
    Ra_check.Diagnostic.errors (List.concat_map (Ra_check.Verify_alloc.run ~regfile) procs)
  in
  ca.verify_s <- ca.verify_s +. (now () -. t0);
  ca.verified <- ca.verified + 1;
  ca.errors <- ca.errors + List.length errors;
  if errors <> [] then Fail (F_verify, Ra_check.Diagnostic.report errors)
  else begin
    let t0 = now () in
    let out =
      match Exec.run ~fuel:s.fuel ~procs ~entry:s.entry ~args:s.args () with
      | out -> Ok out
      | exception Exec.Runtime_error msg -> Error msg
      | exception Exec.Out_of_fuel -> Error "out of fuel"
    in
    ca.exec_s <- ca.exec_s +. (now () -. t0);
    ca.executed <- ca.executed + 1;
    match out with
    | Error msg -> Fail (F_output, msg)
    | Ok out ->
      ca.instructions <- ca.instructions + out.Exec.instructions;
      if out.Exec.output <> s.reference.Exec.output then
        Fail (F_output, "printed output differs from the reference")
      else if not (same_result out.Exec.result s.reference.Exec.result) then
        Fail (F_output, "result differs from the reference")
      else
        Pass
          { spilled =
              List.fold_left (fun n (r : Allocator.result) -> n + r.Allocator.total_spilled) 0 results;
            code_size = int_of_float (instrs procs);
            cycles = float out.Exec.cycles;
            spill_cost =
              List.fold_left (fun c (r : Allocator.result) -> c +. r.Allocator.total_spill_cost) 0.0 results;
            spill_set = [] }
  end

let check_graph ig costs outcome =
  let n = Igraph.n_nodes ig and p = Igraph.n_precolored ig in
  let valid_color = function Some c -> c >= 0 && c < graph_k | None -> false in
  let spill_set =
    match outcome with
    | Heuristic.Colored colors ->
      let ok = ref (Igraph.check_coloring ig ~colors = None) in
      for i = p to n - 1 do
        if not (valid_color colors.(i)) then ok := false
      done;
      if !ok then Ok [] else Error "not a proper coloring in [0, k)"
    | Heuristic.Spill l ->
      let sorted = List.sort_uniq Int.compare l in
      if List.length sorted <> List.length l then Error "a web is spilled twice"
      else if List.exists (fun w -> w < p || w >= n) l then Error "spilled a non-web"
      else Ok sorted
  in
  match spill_set with
  | Error msg -> Fail (F_output, msg)
  | Ok set ->
    let total = Array.fold_left ( +. ) 0.0 (Array.sub costs p (n - p)) in
    let spill_cost = List.fold_left (fun c w -> c +. costs.(w)) 0.0 set in
    Pass
      { spilled = List.length set;
        code_size = 2 * List.length set;
        cycles = total +. (float Ra_vm.Cost_model.memory_cost *. spill_cost);
        spill_cost;
        spill_set = set }

let check ca prepared outcome =
  match prepared, outcome with
  | _, Alloc_failed msg -> Fail (F_alloc, msg)
  | P_source s, Allocated results -> check_source ca s results
  | P_graph (ig, costs), Colored o -> check_graph ig costs o
  | P_source _, Colored _ | P_graph _, Allocated _ -> assert false

(* The paper's §2.3 theorem on one graph: Briggs spills a subset of what
   Chaitin spills. *)
let subset_holds ~chaitin ~briggs =
  List.for_all (fun w -> List.mem w chaitin.spill_set) briggs.spill_set
