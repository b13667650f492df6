(** Seeded input generators: serve request streams and arrival
    schedules, the Table 4 autotune instances, and the ingest files.
    Everything is drawn from [--seed] through {!Prng} streams, so the
    same seed gives the same inputs.  The seed varies incidental detail —
    request order, arrival times, where each serve-cold size sequence
    starts, chip variants, dataset and file contents — while each
    workload's mix, sizes and rates are fixed, so runs at different seeds
    measure the same thing. *)

module Prng = Stardust_workloads.Prng
module J = Stardust_json.Json
module K = Stardust_core.Kernels
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module D = Stardust_workloads.Datasets
module Eval = Stardust_explore.Eval

(** Independent stream [salt] of seed [seed]. *)
let stream seed salt = Prng.create ((seed * 1_000_003) + salt)

(* ------------------------------------------------------------------ *)
(* Serve requests                                                      *)
(* ------------------------------------------------------------------ *)

let kernels =
  Array.of_list (List.map (fun s -> String.lowercase_ascii s.K.kname) K.all)

(** Kernels whose inputs include an order-3 tensor take the smaller size
    band: their inputs grow with [n^3]. *)
let is_tensor3 name =
  match K.find name with
  | None -> false
  | Some spec ->
      List.exists
        (fun (_, f) -> F.order f >= 3)
        (List.hd spec.K.stages).K.formats

type req = {
  op : string;  (** estimate | compile | stats | autotune *)
  kernel : string;
  n : int;
  pmus : int;  (** 0: the daemon's default chip *)
  dram : string;  (** "": the daemon's default memory *)
  emit : string list;  (** []: the default sections *)
}

(** A request line: one request, or a JSON-array batch. *)
type line = Single of req | Batch of req list

let fields r =
  [ ("op", J.Str r.op); ("kernel", J.Str r.kernel); ("n", J.Num (float_of_int r.n)) ]
  @ (if r.pmus > 0 then [ ("pmus", J.Num (float_of_int r.pmus)) ] else [])
  @ (if r.dram <> "" then [ ("dram", J.Str r.dram) ] else [])
  @ (if r.emit <> [] then [ ("emit", J.Arr (List.map (fun s -> J.Str s) r.emit)) ]
     else [])
  @ if r.op = "autotune" then [ ("strategy", J.Str "halving") ] else []

let request_json ~id r = J.Obj (("id", J.Num (float_of_int id)) :: fields r)

let key r = Printf.sprintf "%s|%s|%d|%d|%s|%s" r.op r.kernel r.n r.pmus r.dram
    (String.concat "," r.emit)

(** serve-hot's key set: 48 kernel-mode keys with Zipf (s = 1)
    popularity.  It is the same at every seed, so seeds differ only in
    the request sequence drawn from it and the arrival times: each key's
    cost is set by its kernel and size, and letting the seed pick sizes
    moves the latency percentiles more than any change worth detecting.
    Matrices span n in [64, 256] and order-3 tensors n in [12, 24]; ops
    are 60% estimate, 30% compile and 10% stats. *)
let hot_keys =
  let ops = [| "estimate"; "compile"; "estimate"; "stats"; "estimate";
               "compile"; "estimate"; "estimate"; "compile"; "estimate" |] in
  Array.init 48 (fun i ->
      let kernel = kernels.(i mod Array.length kernels) in
      {
        op = ops.((i + (i / 10)) mod 10);
        kernel;
        n = (if is_tensor3 kernel then 12 + ((i * 5) mod 13) else 64 + ((i * 61) mod 193));
        pmus = 0;
        dram = "";
        emit = [];
      })

(** Shuffle [a] in place with [rng] (Fisher-Yates). *)
let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let r = Prng.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(r);
    a.(r) <- t
  done

(** A stream dealing [block]'s items in a fresh shuffle per pass: each
    pass holds exactly the block's mix, so seeds differ in order, not in
    proportions. *)
let deal rng block =
  let deck = Array.copy block and next = ref (Array.length block) in
  fun () ->
    if !next = Array.length deck then begin
      shuffle rng deck;
      next := 0
    end;
    incr next;
    deck.(!next - 1)

(** The serve-hot request stream: blocks of 480 requests in which key
    rank [k] appears in proportion to [1 / (k + 1)] (Zipf, s = 1),
    rounded by largest remainder. *)
let hot_stream ~seed =
  let n = Array.length hot_keys and size = 480 in
  let exact =
    let w = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    Array.map (fun x -> float_of_int size *. x /. total) w
  in
  let counts = Array.map truncate exact in
  let by_remainder = Array.init n Fun.id in
  let rem k = exact.(k) -. float_of_int counts.(k) in
  Array.stable_sort (fun a b -> compare (rem b) (rem a)) by_remainder;
  for k = 0 to size - Array.fold_left ( + ) 0 counts - 1 do
    counts.(by_remainder.(k)) <- counts.(by_remainder.(k)) + 1
  done;
  deal (stream seed 2)
    (Array.concat
       (Array.to_list (Array.mapi (fun k c -> Array.make c (Single hot_keys.(k))) counts)))

(** The serve-cold request stream: every request a distinct key, dealt
    in shuffled blocks of 40 requests with an exact mix — 24 estimates,
    8 compiles with every section, 4 stats and 4 halving autotunes.  Each
    op cycles through the kernels, so every ten blocks give each op each
    kernel equally often.  Each (op, kernel) pair spreads its sizes evenly
    over n in [48, 320] for matrices and [10, 28] for order-3 tensors (a
    golden-ratio sequence from a seeded start), so the costly requests
    cover the same sizes at every seed; chip [pmus] is uniform over
    [100, 200] and memory over hbm2e/ddr4/ideal.  Two four-request
    batches per block make 2 of its 34 lines. *)
let cold_stream ~seed =
  let rng = stream seed 3 in
  let seen = Hashtbl.create 4096 in
  let drams = [| "hbm2e"; "ddr4"; "ideal" |] in
  let mix = [ ("estimate", 24); ("compile", 8); ("stats", 4); ("autotune", 4) ] in
  let cursor = Hashtbl.create 8 and phases = Hashtbl.create 64 in
  let size op kernel =
    let p =
      match Hashtbl.find_opt phases (op, kernel) with
      | Some p -> Float.rem (p +. 0.6180339887498949) 1.0
      | None -> Prng.float rng
    in
    Hashtbl.replace phases (op, kernel) p;
    if is_tensor3 kernel then 10 + truncate (p *. 19.0) else 48 + truncate (p *. 273.0)
  in
  let chip r = { r with pmus = 100 + Prng.int rng 101; dram = drams.(Prng.int rng 3) } in
  let request op =
    let c = Option.value ~default:0 (Hashtbl.find_opt cursor op) in
    Hashtbl.replace cursor op (c + 1);
    let kernel = kernels.(c mod Array.length kernels) in
    let rec fresh r =
      if Hashtbl.mem seen (key r) then fresh (chip r)
      else begin
        Hashtbl.add seen (key r) ();
        r
      end
    in
    fresh
      (chip
         {
           op;
           kernel;
           n = size op kernel;
           pmus = 0;
           dram = "";
           emit = (if op = "compile" then [ "cin"; "code"; "resources" ] else []);
         })
  in
  let pending = Queue.create () in
  fun () ->
    if Queue.is_empty pending then begin
      let block =
        Array.of_list (List.concat_map (fun (op, k) -> List.init k (fun _ -> request op)) mix)
      in
      shuffle rng block;
      Array.iteri
        (fun i r ->
          if i = 0 || i = 20 then
            Queue.push (Batch (Array.to_list (Array.sub block i 4))) pending
          else if i mod 20 >= 4 then Queue.push (Single r) pending)
        block
    end;
    Queue.pop pending

(** Arrival offsets (seconds from phase start) at [rate] per second over
    [duration] seconds: one arrival at a uniformly drawn point of each
    [1 / rate] slot.  Unlike Poisson arrivals, whose chance bursts moved
    the open-loop p99 by +-20% between seeds, no more than two requests
    arrive within one slot's length. *)
let arrivals ~seed ~rate ~duration =
  let rng = stream seed 4 in
  Array.init (truncate (rate *. duration)) (fun k -> (float_of_int k +. Prng.float rng) /. rate)

(** The independent check's problems: every kernel at two small sizes
    (n in [8, 24] for matrices, [4, 10] for order-3 tensors). *)
let small_problems ~seed =
  let rng = stream seed 8 in
  List.concat_map
    (fun k ->
      List.init 2 (fun _ ->
          (k, if is_tensor3 k then 4 + Prng.int rng 7 else 8 + Prng.int rng 17)))
    (Array.to_list kernels)

(* ------------------------------------------------------------------ *)
(* Autotune: the paper's Table 4 kernel x dataset bindings              *)
(* ------------------------------------------------------------------ *)

type instance = { kernel : string; dataset : string; problem : Eval.problem }

let sddmm_rank = 64
let factor_rank = 32

(** The 24 kernel-dataset bindings of Table 4 (each kernel's first
    stage), built on {!Datasets}' paper-shaped generators.  [scale]
    shrinks every dimension (1 = paper scale) for the smoke test.  The
    seed moves every generator's own seed, so the structure class and
    size of each dataset are fixed while its contents vary. *)
let table4 ?(scale = 1) ~seed () =
  let s k = (seed * 7919) + k in
  let dv ?(k = 0) name dim = D.dense_vector ~seed:(s (100 + k)) ~name ~dim () in
  let dm ?(k = 0) name fmt rows cols =
    D.dense_matrix ~seed:(s (200 + k)) ~name ~format:fmt ~rows ~cols ()
  in
  let suitesparse format =
    [
      ("bcsstk30", fun () -> D.bcsstk30_like ~dim:(28924 / scale) ~seed:(s 19) ~format ());
      ("ckt11752_dc_1", fun () -> D.ckt11752_like ~dim:(49702 / scale) ~seed:(s 23) ~format ());
      ("Trefethen_20000", fun () -> D.trefethen_like ~dim:(20000 / scale) ~seed:(s 29) ~format ());
    ]
  in
  let memo = Hashtbl.create 16 in
  let memoize key f =
    match Hashtbl.find_opt memo key with
    | Some t -> t
    | None ->
        let t = f () in
        Hashtbl.add memo key t;
        t
  in
  let csr_sets =
    List.map (fun (dn, f) -> (dn, fun () -> memoize (dn ^ "/csr") f)) (suitesparse (F.csr ()))
  in
  let csc_sets =
    List.map (fun (dn, f) -> (dn, fun () -> memoize (dn ^ "/csc") f)) (suitesparse (F.csc ()))
  in
  let facebook () =
    memoize "facebook" (fun () ->
        D.facebook_like
          ~dims:(1591 / scale, 63891 / scale, 63890 / scale)
          ~density:(1.14e-7 *. float_of_int (scale * scale))
          ~seed:(s 31) ~format:(F.csf 3) ())
  in
  let densities = [ 0.01; 0.10; 0.50 ] in
  let plus_matrix d =
    memoize (Printf.sprintf "plus/%g" d) (fun () ->
        D.random_matrix ~seed:(s 7) ~name:"B" ~format:(F.csr ())
          ~rows:(800 / scale) ~cols:(800 / scale) ~density:d ())
  in
  let rand3 d =
    memoize (Printf.sprintf "rand3/%g" d) (fun () ->
        let n = 200 / scale in
        D.random_tensor3 ~seed:(s 11) ~name:"B" ~format:(F.ucc ())
          ~dims:[ n; n; n ] ~density:d ())
  in
  let problem (spec : K.spec) inputs =
    let st = List.hd spec.K.stages in
    Eval.problem_of_string ~name:(String.lowercase_ascii spec.K.kname)
      ~formats:st.K.formats ~inputs st.K.expr
  in
  let inst spec dataset inputs =
    { kernel = String.lowercase_ascii spec.K.kname; dataset; problem = problem spec inputs }
  in
  let matrices sets f =
    List.map (fun (dn, m) -> f dn (m ())) sets
  in
  List.concat
    [
      matrices csr_sets (fun dn a ->
          inst K.spmv dn [ ("A", T.rename "A" a); ("x", dv "x" (T.dim a 1)) ]);
      matrices csr_sets (fun dn b ->
          inst K.sddmm dn
            [
              ("B", T.rename "B" b);
              ("C", dm "C" (F.rm ()) (T.dim b 0) sddmm_rank);
              ("D", dm ~k:1 "D" (F.rm ()) (T.dim b 1) sddmm_rank);
            ]);
      matrices csc_sets (fun dn a ->
          inst K.mattransmul dn
            [
              ("A", T.rename "A" a);
              ("x", dv "x" (T.dim a 0));
              ("z", dv ~k:1 "z" (T.dim a 1));
            ]);
      matrices csr_sets (fun dn a ->
          inst K.residual dn
            [
              ("A", T.rename "A" a);
              ("x", dv "x" (T.dim a 1));
              ("b", dv ~k:2 "b" (T.dim a 0));
            ]);
      List.map
        (fun d ->
          let b = plus_matrix d in
          inst K.plus3
            (Printf.sprintf "random-%g%%" (100. *. d))
            [ ("B", T.rename "B" b); ("C", D.rotate_cols ~by:1 ~name:"C" b) ])
        densities;
      (let b = facebook () in
       [
         inst K.ttv "facebook" [ ("B", T.rename "B" b); ("c", dv "c" (T.dim b 2)) ];
         inst K.ttm "facebook"
           [ ("B", T.rename "B" b); ("C", dm "C" (F.cm ()) factor_rank (T.dim b 2)) ];
         inst K.mttkrp "facebook"
           [
             ("B", T.rename "B" b);
             ("C", dm "C" (F.rm ()) (T.dim b 1) factor_rank);
             ("D", dm ~k:1 "D" (F.rm ()) (T.dim b 2) factor_rank);
           ];
       ]);
      List.concat_map
        (fun spec ->
          List.map
            (fun d ->
              let b = rand3 d in
              inst spec
                (Printf.sprintf "random-%g%%" (100. *. d))
                [ ("B", T.rename "B" b); ("C", D.rotate_even_last ~name:"C" b) ])
            densities)
        [ K.innerprod; K.plus2 ];
    ]

(* ------------------------------------------------------------------ *)
(* Ingest files                                                        *)
(* ------------------------------------------------------------------ *)

(** Order-independent checksum of (coordinates, value) entries: a sum of
    per-entry hashes, so the reader's output can be checked against the
    generator whatever order either side visits the entries in. *)
let entry_hash coords v =
  let h = ref (Int64.of_float (v *. 4.0)) in
  Array.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (c + 1))) 0x100000001b3L)
    coords;
  !h

let checksum_add acc coords v = Int64.add acc (entry_hash coords v)

(** Distinct cells of a power-of-two grid, in generation order: an odd
    stride walks the grid as a permutation, so the first [nnz] steps
    never repeat.  Values are quarter-integers, exact in text. *)
let cells ~rng ~grid ~nnz =
  let stride = (2 * Prng.int rng (grid / 4)) + 1 in
  let offset = Prng.int rng grid in
  Array.init nnz (fun k -> ((k * stride) + offset) land (grid - 1))

let value_of k = 0.25 *. float_of_int (1 + (k mod 9))

type file = {
  path : string;
  kind : string;  (** sorted | shuffled | tns *)
  bytes : int;
  dims : int array;
  nnz : int;
  entries : (int array * float) array;  (** in file order *)
  checksum : int64;
}

let write_file ~dir ~name ~kind ~dims ~header entries =
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      Array.iter
        (fun (c, v) ->
          Array.iter (fun x -> Printf.fprintf oc "%d " (x + 1)) c;
          Printf.fprintf oc "%g\n" v)
        entries);
  {
    path;
    kind;
    bytes = (Unix.stat path).Unix.st_size;
    dims;
    nnz = Array.length entries;
    entries;
    checksum = Array.fold_left (fun acc (c, v) -> checksum_add acc c v) 0L entries;
  }

(** A [rows] x [cols] Matrix Market file of [nnz] distinct entries,
    written twice: in row-major order and in a seeded shuffle. *)
let write_mtx_pair ~seed ~dir ~rows ~cols ~nnz =
  let rng = stream seed 5 in
  let entries =
    Array.mapi (fun k p -> ([| p / cols; p mod cols |], value_of k))
      (cells ~rng ~grid:(rows * cols) ~nnz)
  in
  let header =
    Printf.sprintf "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n" rows cols nnz
  in
  let sorted = Array.copy entries in
  Array.sort compare sorted;
  let shuffled = Array.copy entries in
  shuffle rng shuffled;
  let dims = [| rows; cols |] in
  [
    write_file ~dir ~name:"e2e-sorted.mtx" ~kind:"sorted" ~dims ~header sorted;
    write_file ~dir ~name:"e2e-shuffled.mtx" ~kind:"shuffled" ~dims ~header shuffled;
  ]

(** An [n]^3 FROSTT file of [nnz] distinct entries in coordinate order. *)
let write_tns ~seed ~dir ~n ~nnz =
  let rng = stream seed 6 in
  let entries =
    Array.mapi
      (fun k p -> ([| p / (n * n); p / n mod n; p mod n |], value_of k))
      (cells ~rng ~grid:(n * n * n) ~nnz)
  in
  Array.sort compare entries;
  write_file ~dir ~name:"e2e.tns" ~kind:"tns" ~dims:[| n; n; n |] ~header:"" entries
