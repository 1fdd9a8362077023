(* rralloc — command-line driver for the register-allocation library.

   Subcommands:
     dump     parse + typecheck + codegen, print the IR
     alloc    register-allocate and print allocated code + statistics
     run      execute a procedure under the VM (virtual or allocated)
     compare  Chaitin vs Briggs spill statistics for every procedure
     synth    emit a synthetic MFL program, or color a synthetic
              interference graph with the speculative Select engine
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile ?(optimize = false) path =
  try
    let procs = Ra_ir.Codegen.compile_source (read_file path) in
    if optimize then Ra_opt.Opt.optimize_all procs;
    procs
  with
  | Ra_frontend.Errors.Lex_error _ | Ra_frontend.Errors.Parse_error _
  | Ra_frontend.Errors.Type_error _ as e ->
    Printf.eprintf "%s: %s\n" path (Ra_frontend.Errors.describe e);
    exit 1

let machine_of_k = function
  | None -> Ra_core.Machine.rt_pc
  | Some k -> Ra_core.Machine.with_int_regs Ra_core.Machine.rt_pc k

let heuristic_of_name name =
  match Ra_core.Heuristic.of_name name with
  | Some h -> h
  | None ->
    Printf.eprintf "unknown heuristic %S (chaitin|briggs|matula|irc)\n" name;
    exit 1

(* ---- arguments ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MFL source file")

let proc_arg =
  Arg.(value & opt (some string) None & info [ "proc"; "p" ] ~docv:"NAME"
         ~doc:"Restrict to one procedure")

let heuristic_arg =
  Arg.(value & opt string "briggs" & info [ "heuristic"; "H" ] ~docv:"NAME"
         ~doc:"Coloring heuristic: chaitin, briggs, matula or irc")

let k_arg =
  Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K"
         ~doc:"Restrict the integer register file to K registers")

let opt_arg =
  Arg.(value & flag & info [ "O"; "optimize" ]
         ~doc:"Run the optimizer (CSE, loop-invariant code motion, DCE)")

let verify_arg =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"Verify the allocation: lint the input, check the coloring \
               against an independent liveness recomputation, lint and \
               verify the output (same as setting RA_VERIFY)")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for parallel graph construction and, in \
               compare/suite, procedure-level dispatch (default: RA_JOBS \
               or the core count; 1 disables). Results are bit-identical \
               at any setting.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-edge-cache" ]
         ~doc:"Disable the per-block interference edge cache that irc and \
               no-coalesce builds read: every such build round rescans \
               all blocks (same as RA_EDGE_CACHE=0). Results are \
               bit-identical either way.")

let race_arg =
  Arg.(value & flag & info [ "race-check" ]
         ~doc:"Record every shared-structure access during allocation and \
               verify race-freedom (vector-clock happens-before over the \
               pool's synchronization events) plus conformance to each \
               task's declared footprint; exit non-zero on a finding \
               (same as setting RA_RACE_CHECK=1)")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Record a structured trace of the allocation and write it \
               to PATH at exit: a Chrome trace_event JSON array \
               (about://tracing / Perfetto), or JSON lines when PATH \
               ends in .jsonl (same as setting RA_TRACE=PATH)")

let no_par_color_arg =
  Arg.(value & flag & info [ "no-par-color" ]
         ~doc:"Keep the Select stage on the plain sequential path \
               instead of the speculative parallel coloring engine \
               (same as RA_PAR_COLOR=0). Results are bit-identical \
               either way; this only moves work off the pool.")

let apply_par_color no_par =
  if no_par then Ra_core.Par_color.set_enabled (Some false)

let sched_arg =
  Arg.(value & opt (some (enum [ "dag", Ra_core.Batch.Dag;
                                 "flat", Ra_core.Batch.Flat ]))
         None
       & info [ "sched" ] ~docv:"MODE"
           ~doc:"Multi-procedure scheduling: 'dag' (default) runs every \
                 pipeline stage as a footprint-ordered task on the \
                 work-stealing scheduler, sharing each procedure's \
                 first-pass graph build across heuristics; 'flat' \
                 dispatches whole procedures onto the domain pool (same \
                 as RA_SCHED). Results are bit-identical either way.")

let apply_sched sched = Option.iter Ra_core.Batch.set_sched_mode sched

(* None = follow the RA_EDGE_CACHE default; Some false = --no-edge-cache *)
let edge_cache_opt no_cache = if no_cache then Some false else None

(* --trace overrides RA_TRACE; must run before the first allocation
   configures the ambient telemetry sink. *)
let apply_trace trace =
  Option.iter Ra_support.Telemetry.set_trace_path trace

(* --race-check / RA_RACE_CHECK: run [f] with access logging on, then
   analyze. Findings are errors: report and exit non-zero. *)
let race_scope race f =
  if race || Ra_check.Race.enabled_from_env () then begin
    let result, diags = Ra_check.Race.with_check f in
    if diags <> [] then prerr_endline (Ra_check.Diagnostic.report diags);
    Printf.eprintf "race check: %s\n" (Ra_check.Diagnostic.summary diags);
    if Ra_check.Diagnostic.has_errors diags then exit 1;
    result
  end
  else f ()

(* --jobs overrides RA_JOBS for everything downstream (the shared pool is
   created lazily, after this runs). Returns the pool for drivers that
   dispatch whole procedures, or None when sequential. *)
let apply_jobs jobs =
  (match jobs with Some j -> Ra_support.Pool.set_default_jobs j | None -> ());
  if Ra_support.Pool.default_jobs () > 1 then Some (Ra_support.Pool.global ())
  else None

(* One heuristic over a procedure batch under the selected scheduling
   mode: the DAG matrix (stage tasks, shared first-pass builds) by
   default, the flat procedure-per-task pool under --sched flat. *)
let allocate_batch ?edge_cache ?verify ~pool machine h procs =
  match Ra_core.Batch.sched_mode () with
  | Ra_core.Batch.Dag ->
    (match
       Ra_core.Batch.allocate_matrix ?edge_cache ?verify machine [ h ] procs
     with
     | [ results ] -> results
     | _ -> assert false)
  | Ra_core.Batch.Flat ->
    Ra_core.Batch.allocate_all ~pool ?edge_cache ?verify machine h procs

let select_procs procs = function
  | None -> procs
  | Some name ->
    (match List.filter (fun (p : Ra_ir.Proc.t) -> p.name = name) procs with
     | [] ->
       Printf.eprintf "no procedure named %s\n" name;
       exit 1
     | ps -> ps)

(* ---- dump ---- *)

let dump_cmd =
  let run file proc optimize lint =
    let procs = select_procs (compile ~optimize file) proc in
    List.iter (fun p -> print_string (Ra_ir.Proc.to_string p)) procs;
    if lint then begin
      let diags =
        List.concat_map (fun p -> Ra_check.Lint.run p) procs
      in
      if diags <> [] then prerr_endline (Ra_check.Diagnostic.report diags);
      Printf.eprintf "lint: %s\n" (Ra_check.Diagnostic.summary diags);
      if Ra_check.Diagnostic.has_errors diags then exit 1
    end
  in
  let lint =
    Arg.(value & flag & info [ "lint" ]
           ~doc:"Lint the IR for structural well-formedness and exit \
                 non-zero on errors")
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print the virtual-register IR")
    Term.(const run $ file_arg $ proc_arg $ opt_arg $ lint)

(* ---- alloc ---- *)

let alloc_cmd =
  let run file proc heuristic k verbose optimize verify jobs no_cache race
      trace sched no_par =
    apply_trace trace;
    apply_sched sched;
    apply_par_color no_par;
    let pool = apply_jobs jobs in
    let machine = machine_of_k k in
    let h = heuristic_of_name heuristic in
    let procs = select_procs (compile ~optimize file) proc in
    let results =
      race_scope race (fun () ->
        allocate_batch ~pool
          ?edge_cache:(edge_cache_opt no_cache)
          ?verify:(if verify then Some true else None)
          machine h procs)
    in
    List.iter2
      (fun (p : Ra_ir.Proc.t) (r : Ra_core.Allocator.result) ->
        Printf.printf
          "%s: live ranges %d, passes %d, spilled %d (cost %.0f), \
           object size %d bytes\n"
          p.Ra_ir.Proc.name r.Ra_core.Allocator.live_ranges
          (List.length r.Ra_core.Allocator.passes)
          r.Ra_core.Allocator.total_spilled
          r.Ra_core.Allocator.total_spill_cost
          (Ra_ir.Proc.object_size r.Ra_core.Allocator.proc);
        if verbose then print_string (Ra_ir.Proc.to_string r.Ra_core.Allocator.proc))
      procs results
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print allocated code")
  in
  Cmd.v (Cmd.info "alloc" ~doc:"Register-allocate and report statistics")
    Term.(const run $ file_arg $ proc_arg $ heuristic_arg $ k_arg $ verbose
          $ opt_arg $ verify_arg $ jobs_arg $ no_cache_arg $ race_arg
          $ trace_arg $ sched_arg $ no_par_color_arg)

(* ---- run ---- *)

let parse_value s =
  match int_of_string_opt s with
  | Some n -> Ra_vm.Value.Vint n
  | None ->
    (match float_of_string_opt s with
     | Some f -> Ra_vm.Value.Vflt f
     | None ->
       Printf.eprintf "cannot parse argument %S (int or float)\n" s;
       exit 1)

let run_cmd =
  let run file entry args heuristic allocate k optimize verify jobs no_cache
      race trace sched =
    apply_trace trace;
    apply_sched sched;
    let pool = apply_jobs jobs in
    let procs = compile ~optimize file in
    let procs =
      if allocate then begin
        let machine = machine_of_k k in
        let h = heuristic_of_name heuristic in
        List.map
          (fun (r : Ra_core.Allocator.result) -> r.Ra_core.Allocator.proc)
          (race_scope race (fun () ->
             allocate_batch ~pool
               ?edge_cache:(edge_cache_opt no_cache)
               ?verify:(if verify then Some true else None)
               machine h procs))
      end
      else procs
    in
    let args = List.map parse_value args in
    match Ra_vm.Exec.run ~procs ~entry ~args () with
    | outcome ->
      List.iter print_endline outcome.Ra_vm.Exec.output;
      (match outcome.Ra_vm.Exec.result with
       | Some v -> Printf.printf "result: %s\n" (Ra_vm.Value.to_string v)
       | None -> ());
      Printf.printf "cycles: %d, instructions: %d\n"
        outcome.Ra_vm.Exec.cycles outcome.Ra_vm.Exec.instructions
    | exception Ra_vm.Exec.Runtime_error msg ->
      Printf.eprintf "runtime error: %s\n" msg;
      exit 1
  in
  let entry =
    Arg.(required & opt (some string) None & info [ "entry"; "e" ] ~docv:"NAME"
           ~doc:"Procedure to run")
  in
  let args =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS"
           ~doc:"Scalar arguments")
  in
  let allocate =
    Arg.(value & flag & info [ "allocated"; "a" ]
           ~doc:"Run register-allocated code instead of virtual-register code")
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a procedure under the VM")
    Term.(const run $ file_arg $ entry $ args $ heuristic_arg $ allocate
          $ k_arg $ opt_arg $ verify_arg $ jobs_arg $ no_cache_arg
          $ race_arg $ trace_arg $ sched_arg)

(* ---- suite ---- *)

let suite_cmd =
  let run name heuristic k allocate jobs no_cache race trace sched =
    apply_trace trace;
    apply_sched sched;
    let pool = apply_jobs jobs in
    let program =
      match
        List.find_opt
          (fun (p : Ra_programs.Suite.program) ->
            String.lowercase_ascii p.Ra_programs.Suite.pname
            = String.lowercase_ascii name)
          Ra_programs.Suite.all
      with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown program %S; available: %s\n" name
          (String.concat ", "
             (List.map
                (fun (p : Ra_programs.Suite.program) -> p.Ra_programs.Suite.pname)
                Ra_programs.Suite.all));
        exit 1
    in
    let procs = Ra_programs.Suite.compile program in
    let procs =
      if allocate then begin
        let machine = machine_of_k k in
        let h = heuristic_of_name heuristic in
        List.map
          (fun (r : Ra_core.Allocator.result) -> r.Ra_core.Allocator.proc)
          (race_scope race (fun () ->
             allocate_batch ~pool
               ?edge_cache:(edge_cache_opt no_cache) machine h procs))
      end
      else procs
    in
    let out =
      Ra_vm.Exec.run ~fuel:program.Ra_programs.Suite.fuel ~procs
        ~entry:program.Ra_programs.Suite.driver
        ~args:program.Ra_programs.Suite.driver_args ()
    in
    List.iter print_endline out.Ra_vm.Exec.output;
    (match out.Ra_vm.Exec.result with
     | Some v -> Printf.printf "result: %s\n" (Ra_vm.Value.to_string v)
     | None -> ());
    Printf.printf "cycles: %d, instructions: %d\n" out.Ra_vm.Exec.cycles
      out.Ra_vm.Exec.instructions
  in
  let prog_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
           ~doc:"Benchmark program name (SVD, LINPACK, SIMPLEX, EULER, CEDETA, QUICKSORT)")
  in
  let allocate =
    Arg.(value & flag & info [ "allocated"; "a" ]
           ~doc:"Run register-allocated code")
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run a benchmark-suite program under the VM")
    Term.(const run $ prog_name $ heuristic_arg $ k_arg $ allocate $ jobs_arg
          $ no_cache_arg $ race_arg $ trace_arg $ sched_arg)

(* ---- synth ---- *)

let synth_cmd =
  let run seed size routines graph webs degree k jobs no_par =
    apply_par_color no_par;
    match graph with
    | None ->
      (* program mode: emit MFL source on stdout, ready to pipe back
         into dump/alloc/run *)
      if routines <= 1 then
        print_string (Ra_programs.Synth.program ~seed ~size)
      else print_string (Ra_programs.Synth.many ~seed ~size ~routines)
    | Some gen ->
      (* graph mode: build the interference graph directly and race the
         speculative Select engine against its sequential baseline *)
      let pool = apply_jobs jobs in
      let g = gen ~seed ~n_nodes:webs ~n_precolored:32 ~avg_degree:degree in
      let view = Ra_core.Synth_graph.view g in
      let order = Ra_core.Synth_graph.natural_order g in
      let wall f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        r, Unix.gettimeofday () -. t0
      in
      let (base_colors, base_unc), seq_s =
        wall (fun () -> Ra_core.Par_color.select_view_seq view ~k ~order)
      in
      let stats = ref Ra_core.Par_color.no_stats in
      let (colors, unc), spec_s =
        wall (fun () ->
          Ra_core.Par_color.select_view ?pool ~stats view ~k ~order)
      in
      let identical = colors = base_colors && unc = base_unc in
      Printf.printf
        "webs %d, edges %d, digest %s\n\
         sequential %.6fs, engine %.6fs (width %d%s), spilled %d\n\
         rounds %d, deferrals %d, identical %b\n"
        (Ra_core.Synth_graph.n_nodes g)
        (Ra_core.Synth_graph.n_edges g)
        (Ra_core.Synth_graph.digest g)
        seq_s spec_s
        (match pool with Some p -> Ra_support.Pool.jobs p | None -> 1)
        (if !stats.Ra_core.Par_color.engaged then "" else ", not engaged")
        (List.length base_unc)
        !stats.Ra_core.Par_color.rounds !stats.Ra_core.Par_color.suspects
        identical;
      if not identical then exit 1
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Generator seed; the same seed always yields the same \
                 bytes/graph")
  in
  let size =
    Arg.(value & opt int 40 & info [ "size" ] ~docv:"N"
           ~doc:"Statement budget per generated routine (program mode)")
  in
  let routines =
    Arg.(value & opt int 1 & info [ "routines" ] ~docv:"N"
           ~doc:"Number of generated routines (program mode); above 1 a \
                 driver main sums their checksums")
  in
  let graph =
    Arg.(value
         & opt
             (some
                (enum
                   [ "power-law",
                     (fun ~seed ~n_nodes ~n_precolored ~avg_degree ->
                       Ra_core.Synth_graph.power_law ~seed ~n_nodes
                         ~n_precolored ~avg_degree);
                     "geometric",
                     (fun ~seed ~n_nodes ~n_precolored ~avg_degree ->
                       Ra_core.Synth_graph.geometric ~seed ~n_nodes
                         ~n_precolored ~avg_degree) ]))
             None
         & info [ "graph" ] ~docv:"KIND"
             ~doc:"Switch to graph mode: generate a 'power-law' or \
                   'geometric' interference graph, color it with the \
                   speculative engine and its sequential baseline, and \
                   report both walls (exits non-zero if they disagree)")
  in
  let webs =
    Arg.(value & opt int 100_000 & info [ "webs" ] ~docv:"N"
           ~doc:"Node count of the generated graph (graph mode)")
  in
  let degree =
    Arg.(value & opt int 8 & info [ "avg-degree" ] ~docv:"N"
           ~doc:"Average degree of the generated graph (graph mode)")
  in
  let k =
    Arg.(value & opt int 16 & info [ "k" ] ~docv:"K"
           ~doc:"Colors available to Select (graph mode)")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Generate synthetic workloads: random MFL programs, or \
             interference graphs colored by the speculative engine")
    Term.(const run $ seed $ size $ routines $ graph $ webs $ degree $ k
          $ jobs_arg $ no_par_color_arg)

(* ---- compare ---- *)

let compare_cmd =
  let run file k optimize jobs no_cache race trace sched no_par =
    apply_trace trace;
    apply_sched sched;
    apply_par_color no_par;
    ignore (apply_jobs jobs);
    let machine = machine_of_k k in
    let procs = compile ~optimize file in
    let hs =
      [ Ra_core.Heuristic.Chaitin; Ra_core.Heuristic.Briggs;
        Ra_core.Heuristic.Matula; Ra_core.Heuristic.Irc ]
    in
    (* Probe every (routine, heuristic) cell once on a private context:
       a heuristic that cannot allocate a routine at all (cost-blind
       Matula on call-heavy k=16 pressure is the goldened case) would
       abort the shared matrix, so failing cells are recorded with the
       allocator's own diagnostic and their routines reported from the
       probe results instead. *)
    let probe_ctx = Ra_core.Context.create ~jobs:1 machine in
    let probed =
      List.map
        (fun p ->
          ( p,
            List.map
              (fun h ->
                match
                  Ra_core.Allocator.allocate ~context:probe_ctx machine h p
                with
                | r -> Ok r
                | exception Ra_core.Pipeline.Allocation_failure reason ->
                  Error reason)
              hs ))
        procs
    in
    let fully_allocatable (_, cells) = List.for_all Result.is_ok cells in
    let matrix_procs = List.filter fully_allocatable probed in
    let matrix =
      (* the comparison matrix proper: under the DAG each procedure's
         first-pass build is shared by all four heuristic pipelines *)
      race_scope race (fun () ->
        Ra_core.Batch.allocate_matrix ?edge_cache:(edge_cache_opt no_cache)
          machine hs
          (List.map (fun (p, _) -> p) matrix_procs))
    in
    let matrix_cells = Hashtbl.create 16 in
    List.iteri
      (fun i ((p : Ra_ir.Proc.t), _) ->
        Hashtbl.replace matrix_cells p.Ra_ir.Proc.name
          (List.map (fun col -> Ok (List.nth col i)) matrix))
      matrix_procs;
    let table =
      Ra_support.Table.create
        ("routine" :: "live ranges"
        :: (List.map
              (fun h -> "spilled(" ^ Ra_core.Heuristic.name h ^ ")")
              hs
           @ List.map
               (fun h -> "cost(" ^ Ra_core.Heuristic.name h ^ ")")
               hs))
    in
    List.iter
      (fun ((p : Ra_ir.Proc.t), probe_cells) ->
        let cells =
          match Hashtbl.find_opt matrix_cells p.Ra_ir.Proc.name with
          | Some cells -> cells
          | None -> probe_cells
        in
        let live =
          match List.find_opt Result.is_ok cells with
          | Some (Ok r) -> string_of_int r.Ra_core.Allocator.live_ranges
          | _ -> "-"
        in
        let spilled =
          List.map
            (function
              | Ok r -> string_of_int r.Ra_core.Allocator.total_spilled
              | Error _ -> "-")
            cells
        in
        let cost =
          List.map
            (function
              | Ok (r : Ra_core.Allocator.result) ->
                Printf.sprintf "%.0f" r.Ra_core.Allocator.total_spill_cost
              | Error _ -> "-")
            cells
        in
        Ra_support.Table.add_row table
          (p.Ra_ir.Proc.name :: live :: (spilled @ cost)))
      probed;
    Ra_support.Table.print table;
    List.iter
      (fun ((p : Ra_ir.Proc.t), cells) ->
        List.iter2
          (fun h -> function
            | Ok _ -> ()
            | Error reason ->
              Printf.printf "excluded: %s under %s: %s\n" p.Ra_ir.Proc.name
                (Ra_core.Heuristic.name h) reason)
          hs cells)
      probed
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Per-procedure spill statistics across all four heuristics \
             (chaitin, briggs, matula, irc)")
    Term.(const run $ file_arg $ k_arg $ opt_arg $ jobs_arg $ no_cache_arg
          $ race_arg $ trace_arg $ sched_arg $ no_par_color_arg)

let () =
  let info = Cmd.info "rralloc" ~doc:"Briggs-style graph-coloring register allocator" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ dump_cmd; alloc_cmd; run_cmd; compare_cmd; suite_cmd; synth_cmd ]))
