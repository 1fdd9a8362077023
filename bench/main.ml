(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus ablations and Bechamel microbenchmarks.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig5       -- Figure 5 only
     dune exec bench/main.exe fig6 fig7  -- a selection

   Outputs are deterministic except the CPU-time columns of Figure 7 and
   the microbenchmark timings.

   With --json the harness instead allocates the selected routine set
   (fig7's four multi-pass routines for `fig7 --json`, the whole suite
   otherwise) three ways — incremental context, incrementality disabled,
   and incremental with the pool-parallel graph build — writes the
   per-pass phase times of all modes plus a sequential-vs-dispatched
   suite wall-clock to BENCH_alloc.json, and exits non-zero if any mode
   disagrees with another on anything but CPU time.

   --jobs=N (any mode) sets the worker-domain count, like RA_JOBS. *)

let available =
  [ "fig3", (fun () ->
      (* the paper's Figure 3 example as a sanity banner *)
      Common.section "Figure 3 -- the diamond graph at k = 2";
      let g = Ra_core.Igraph.create ~n_nodes:4 ~n_precolored:0 in
      List.iter (fun (a, b) -> Ra_core.Igraph.add_edge g a b)
        [ (0, 1); (1, 2); (2, 3); (3, 0) ];
      let costs = Array.make 4 1.0 in
      (match Ra_core.Heuristic.run Ra_core.Heuristic.Chaitin g ~k:2 ~costs with
       | Ra_core.Heuristic.Spill s ->
         Printf.printf "Chaitin: spills %d node(s) -- gives up on w-x-y-z\n"
           (List.length s)
       | Ra_core.Heuristic.Colored _ -> print_endline "Chaitin: colored (?)");
      (match Ra_core.Heuristic.run Ra_core.Heuristic.Briggs g ~k:2 ~costs with
       | Ra_core.Heuristic.Colored colors ->
         Printf.printf "Briggs:  2-colors it -- %s\n"
           (String.concat ", "
              (List.mapi
                 (fun i c ->
                   Printf.sprintf "%c:%s" (Char.chr (Char.code 'w' + i))
                     (match c with Some 0 -> "red" | Some _ -> "blue" | None -> "?"))
                 (Array.to_list colors)))
       | Ra_core.Heuristic.Spill _ -> print_endline "Briggs: spilled (?)");
      print_newline ());
    "fig5", Fig5.run;
    "fig6", Fig6.run;
    "fig7", Fig7.run;
    "ablation", Ablation.run;
    "micro", Micro.run;
    "synth", Synth_bench.run ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let json_mode = List.mem "--json" args in
  let picks = List.filter (fun a -> a <> "--json") args in
  let picks =
    List.filter
      (fun a ->
        match String.length a > 7 && String.sub a 0 7 = "--jobs=" with
        | true ->
          (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
           | Some j -> Ra_support.Pool.set_default_jobs j
           | None ->
             Printf.eprintf "invalid --jobs value %S\n" a;
             exit 1);
          false
        | false -> true)
      picks
  in
  if json_mode then Json_report.run ~picks ()
  else begin
    let requested =
      match picks with [] -> List.map fst available | picks -> picks
    in
    List.iter
      (fun name ->
        match List.assoc_opt name available with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown benchmark %S; available: %s\n" name
            (String.concat ", " (List.map fst available));
          exit 1)
      requested
  end
