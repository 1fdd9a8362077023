open Ra_support

type t = {
  n_nodes : int;
  n_precolored : int;
  row_start : int array; (* length n_nodes + 1 *)
  adj : int array; (* both directions of every edge *)
}

let n_nodes t = t.n_nodes
let n_precolored t = t.n_precolored
let n_edges t = Array.length t.adj / 2

let iter_neighbors t n ~f =
  for i = t.row_start.(n) to t.row_start.(n + 1) - 1 do
    f t.adj.(i)
  done

let view t =
  { Par_color.v_nodes = t.n_nodes;
    v_precolored = t.n_precolored;
    v_iter = (fun n f -> iter_neighbors t n ~f) }

(* Build CSR from a flat [u0; v0; u1; v1; ...] edge array (distinct,
   no self-loops) by counting sort — two passes, no intermediate
   per-node lists. Row contents keep edge-emission order. *)
let of_edge_array ~n_nodes ~n_precolored (edges : int array) ~n_edges =
  let deg = Array.make (n_nodes + 1) 0 in
  for e = 0 to n_edges - 1 do
    deg.(edges.(2 * e)) <- deg.(edges.(2 * e)) + 1;
    deg.(edges.((2 * e) + 1)) <- deg.(edges.((2 * e) + 1)) + 1
  done;
  let row_start = Array.make (n_nodes + 1) 0 in
  for i = 0 to n_nodes - 1 do
    row_start.(i + 1) <- row_start.(i) + deg.(i)
  done;
  let fill = Array.copy row_start in
  let adj = Array.make (2 * n_edges) 0 in
  for e = 0 to n_edges - 1 do
    let u = edges.(2 * e) and v = edges.((2 * e) + 1) in
    adj.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1;
    adj.(fill.(v)) <- u;
    fill.(v) <- fill.(v) + 1
  done;
  { n_nodes; n_precolored; row_start; adj }

let power_law ~seed ~n_nodes ~n_precolored ~avg_degree =
  if n_nodes <= n_precolored then invalid_arg "Synth_graph.power_law: size";
  let rng = Lcg.create ~seed in
  let m = max 1 (avg_degree / 2) in
  (* uniform warm-up pool: the machine registers plus the first webs *)
  let warm = min n_nodes (n_precolored + m + 1) in
  let cap = (2 * m * (n_nodes - warm)) + warm in
  (* every emitted edge endpoint, in order: sampling it uniformly is
     sampling nodes proportionally to degree — the classic BA trick *)
  let endpoints = Array.make (max cap 1) 0 in
  let n_ends = ref 0 in
  let push_end x =
    endpoints.(!n_ends) <- x;
    incr n_ends
  in
  for i = 0 to warm - 1 do
    push_end i
  done;
  let edges = Array.make (2 * m * (n_nodes - warm)) 0 in
  let n_edges = ref 0 in
  let targets = Array.make m (-1) in
  for v = warm to n_nodes - 1 do
    let picked = ref 0 in
    let tries = ref 0 in
    while !picked < m && !tries < 8 * m do
      incr tries;
      let t = endpoints.(Lcg.int rng !n_ends) in
      let dup = ref false in
      for j = 0 to !picked - 1 do
        if targets.(j) = t then dup := true
      done;
      if not !dup then begin
        targets.(!picked) <- t;
        incr picked
      end
    done;
    for j = 0 to !picked - 1 do
      edges.(2 * !n_edges) <- targets.(j);
      edges.((2 * !n_edges) + 1) <- v;
      incr n_edges;
      push_end targets.(j)
    done;
    (* v enters the pool once per edge it gained *)
    for _ = 1 to !picked do
      push_end v
    done
  done;
  of_edge_array ~n_nodes ~n_precolored edges ~n_edges:!n_edges

let geometric ~seed ~n_nodes ~n_precolored ~avg_degree =
  if n_nodes <= n_precolored then invalid_arg "Synth_graph.geometric: size";
  let rng = Lcg.create ~seed in
  let xs = Array.init n_nodes (fun _ -> Lcg.float rng) in
  let ys = Array.init n_nodes (fun _ -> Lcg.float rng) in
  (* expected neighbors within radius r: n * pi * r^2 *)
  let r =
    sqrt (float_of_int avg_degree /. (Float.pi *. float_of_int n_nodes))
  in
  let r2 = r *. r in
  let cells = max 1 (int_of_float (1.0 /. r)) in
  let cell_of f = min (cells - 1) (int_of_float (f *. float_of_int cells)) in
  (* bucket nodes by grid cell, in id order, via counting sort *)
  let cell_id n = (cell_of ys.(n) * cells) + cell_of xs.(n) in
  let count = Array.make ((cells * cells) + 1) 0 in
  for n = 0 to n_nodes - 1 do
    count.(cell_id n + 1) <- count.(cell_id n + 1) + 1
  done;
  for c = 1 to cells * cells do
    count.(c) <- count.(c) + count.(c - 1)
  done;
  let fill = Array.copy count in
  let bucket = Array.make n_nodes 0 in
  for n = 0 to n_nodes - 1 do
    bucket.(fill.(cell_id n)) <- n;
    fill.(cell_id n) <- fill.(cell_id n) + 1
  done;
  let edges = ref (Array.make 1024 0) in
  let n_edges = ref 0 in
  let add_edge u v =
    (if 2 * (!n_edges + 1) > Array.length !edges then begin
       let b = Array.make (2 * Array.length !edges) 0 in
       Array.blit !edges 0 b 0 (2 * !n_edges);
       edges := b
     end);
    !edges.(2 * !n_edges) <- u;
    !edges.((2 * !n_edges) + 1) <- v;
    incr n_edges
  in
  for u = 0 to n_nodes - 1 do
    let cx = cell_of xs.(u) and cy = cell_of ys.(u) in
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let gx = cx + dx and gy = cy + dy in
        if gx >= 0 && gx < cells && gy >= 0 && gy < cells then begin
          let c = (gy * cells) + gx in
          for i = count.(c) to count.(c + 1) - 1 do
            let v = bucket.(i) in
            if v > u then begin
              let ddx = xs.(u) -. xs.(v) and ddy = ys.(u) -. ys.(v) in
              if (ddx *. ddx) +. (ddy *. ddy) <= r2 then add_edge u v
            end
          done
        end
      done
    done
  done;
  of_edge_array ~n_nodes ~n_precolored !edges ~n_edges:!n_edges

let natural_order t =
  Array.init (t.n_nodes - t.n_precolored) (fun i -> t.n_precolored + i)

let digest t =
  let h = ref 0x3bf29ce484222325 (* FNV offset basis, truncated to int *) in
  let mix x =
    (* FNV-1a over the int's bytes, folded 8 at a time *)
    let x = ref x in
    for _ = 0 to 7 do
      h := (!h lxor (!x land 0xff)) * 0x100000001b3;
      x := !x asr 8
    done
  in
  mix t.n_nodes;
  mix t.n_precolored;
  Array.iter mix t.row_start;
  Array.iter mix t.adj;
  Printf.sprintf "%016x" (!h land max_int)

let to_igraph t =
  let g = Igraph.create ~n_nodes:t.n_nodes ~n_precolored:t.n_precolored in
  for u = 0 to t.n_nodes - 1 do
    iter_neighbors t u ~f:(fun v -> if v > u then Igraph.add_edge g u v)
  done;
  g
