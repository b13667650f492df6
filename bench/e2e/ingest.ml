(** The ingest workload: dataset files through {!Ingest.read_file} to a
    tile-0 cycle estimate.  Three files are written first (untimed): a
    Matrix Market matrix in row-major order, the same entries in a
    seeded shuffle, and an order-3 FROSTT tensor.  One operation reads a
    file, compiles SpMV (matrices) or TTV (the tensor) on it, plans its
    tiles for a small chip with {!Tile.plan} and estimates tile 0; a pass
    runs it on each file.  Both kernels compile under the canonical
    schedule of {!C.compile_string}, which {!Tile.plan} can slice; TTV
    writes a dense output, which that schedule can accumulate into. *)

module Ingest = Stardust_ingest.Ingest
module Tile = Stardust_ingest.Tile
module C = Stardust_core.Compile
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Coo = Stardust_tensor.Coo
module D = Stardust_workloads.Datasets
module Stats_cache = Stardust_tensor.Stats_cache

type config = { seed : int; seconds : float; tmp : string; scale : int }

let now = Unix.gettimeofday

(** Matrix side and entries, tensor side and entries; [scale] divides the
    entry counts only, so the files always overflow {!small_arch}. *)
let mtx_side = 4096
let mtx_nnz = 200_000
let tns_side = 128
let tns_nnz = 100_000

(** A quarter-ish chip — 64 PMUs of 16 x 64 words — that both kinds of
    file overflow, so {!Tile.plan} has tiles to plan. *)
let small_arch =
  { Arch.default with Arch.num_pmu = 64; pmu_banks = 16; pmu_words_per_bank = 64 }

(** The expression a file is compiled into, its formats, and the names of
    the file's tensor and of the dense vector operand. *)
let kernel (f : Gen.file) =
  if f.kind = "tns" then
    ("A(i,j) = B(i,j,k) * c(k)", [ ("A", F.rm ()); ("B", F.csf 3); ("c", F.dv ()) ], "B", "c")
  else ("y(i) = A(i,j) * x(j)", [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ], "A", "x")

let write_files cfg =
  let t0 = now () in
  let files =
    Gen.write_mtx_pair ~seed:cfg.seed ~dir:cfg.tmp ~rows:mtx_side ~cols:mtx_side
      ~nnz:(mtx_nnz / cfg.scale)
    @ [ Gen.write_tns ~seed:cfg.seed ~dir:cfg.tmp ~n:tns_side ~nnz:(tns_nnz / cfg.scale) ]
  in
  Printf.printf "wrote %s in %.1f s (untimed)\n%!"
    (String.concat ", "
       (List.map (fun (f : Gen.file) -> Printf.sprintf "%s %d B" f.kind f.bytes) files))
    (now () -. t0);
  files

(** One operation: read, compile, plan tiles, estimate tile 0.  Checks
    the entries read against the generator's and returns the tile-0
    cycles, the read time and the operation's time. *)
let op (res : Result.t) (f : Gen.file) =
  let expr, formats, sparse, dense = kernel f in
  let t0 = now () in
  let t =
    Spans.span ("ingest.read." ^ f.kind) (fun () ->
        Ingest.read_file ~name:sparse ~dims:(Array.to_list f.dims)
          ~format:(List.assoc sparse formats) f.path)
  in
  let read_s = now () -. t0 in
  let sum = T.fold_nonzeros (fun acc c v -> Gen.checksum_add acc c v) 0L t in
  Result.op res
    (T.num_vals t = f.nnz && sum = f.checksum)
    "%s: read %d entries (checksum %Ld), wrote %d (checksum %Ld)" f.kind (T.num_vals t) sum
    f.nnz f.checksum;
  let dim = f.dims.(Array.length f.dims - 1) in
  let inputs = [ (sparse, t); (dense, D.dense_vector ~name:dense ~dim ()) ] in
  (* untraced runs call the public entry point; a traced one splits it
     into its stages *)
  let compile inputs =
    if !Spans.on then
      let sched = Spans.span "compile.schedule" (fun () -> C.schedule_of_string ~formats expr) in
      Checks.compile_traced ~name:"kernel" sched ~inputs
    else C.compile_string ~formats ~inputs expr
  in
  let c = compile inputs in
  match Spans.span "tile.plan" (fun () -> Tile.plan small_arch c) with
  | Error reason ->
      Result.op res false "%s: no tile plan: %s" f.kind reason;
      (nan, read_s, now () -. t0)
  | Ok (shard, ranges) ->
      let lo, hi = List.hd ranges in
      let c0 = compile (Spans.span "tile.inputs" (fun () -> Tile.tile_inputs shard c ~lo ~hi)) in
      let r = Spans.span "sim.estimate" (fun () -> Sim.estimate ~config:Sim.default_config c0) in
      (r.Sim.cycles, read_s, now () -. t0)

(** One pass over the files: each operation's outcome, and the pass's
    wall time.  Each pass starts from an empty statistics cache, as
    ingesting new files would (its fingerprint memo would otherwise keep
    every pass's tensors alive). *)
let pass res files =
  Stats_cache.reset ();
  let t0 = now () in
  let outs = List.map (op res) files in
  (outs, now () -. t0)

let run cfg (res : Result.t) =
  (* the checks need only each file's checksum and entry count *)
  let files =
    List.map (fun (f : Gen.file) -> { f with entries = [||] }) (write_files cfg)
  in
  Gc.compact ();
  let first, setup_s = pass res files in
  let passes = ref [] in
  let t1 = now () in
  while !passes = [] || now () -. t1 < cfg.seconds do
    passes := pass res files :: !passes
  done;
  let passes = List.rev !passes in
  List.iter
    (fun (outs, _) ->
      List.iter2
        (fun (f : Gen.file) ((c, _, _), (c0, _, _)) ->
          Result.op res (c = c0) "%s: tile-0 cycles %g, first pass %g" f.kind c c0)
        files (List.combine outs first))
    passes;
  Checks.functional res (Gen.small_problems ~seed:cfg.seed);
  let times = Array.of_list (List.map snd passes) in
  let op_times k = List.map (fun (outs, _) -> let _, _, t = List.nth outs k in t) passes in
  let slowest =
    List.fold_left Float.max 0.0 (List.mapi (fun k _ -> Stats.median_list (op_times k)) files)
  in
  let entries = List.fold_left (fun acc (f : Gen.file) -> acc + f.nnz) 0 files in
  Printf.printf "%d timed passes over %d files\n" (Array.length times) (List.length files);
  Result.metric res "setup_s" "s" setup_s;
  Result.metric res "latency_ms" "ms" (1000.0 *. Stats.median times);
  Result.metric res "tail_ms" "ms" (1000.0 *. slowest);
  Result.metric res "throughput_per_s" "1/s"
    (float_of_int (entries * Array.length times) /. Array.fold_left ( +. ) 0.0 times);
  Result.metric res "peak_rss_mb" "MB" (Option.value ~default:0.0 (Stats.self_vmhwm_mb ()))

(** Traced run: a warm-up pass, then a traced pass between two untraced
    ones (each from an empty statistics cache), then {!T.of_coo} alone on
    each file's entries in file order, which splits the reader's time
    into parsing and packing. *)
let trace cfg (res : Result.t) =
  let files = write_files cfg in
  ignore (pass res files);
  let _, before = pass res files in
  Stats_cache.reset ();
  let mark = Layers.gc_mark () in
  Spans.on := true;
  let outs =
    List.mapi (fun i f -> Spans.root ~id:i "ingest" (fun () -> op res f)) files
  in
  Spans.on := false;
  let gc = Layers.gc_since mark ~ops:(List.length files) in
  let stats = Layers.stats_count () in
  let _, after = pass res files in
  let of_coo =
    List.map
      (fun (f : Gen.file) ->
        let _, formats, sparse, _ = kernel f in
        let coo = Coo.create f.dims in
        Array.iter (fun (c, v) -> Coo.add coo c v) f.entries;
        let t0 = now () in
        ignore (T.of_coo ~name:sparse ~format:(List.assoc sparse formats) coo);
        now () -. t0)
      files
  in
  let read_s = List.fold_left (fun acc (_, r, _) -> acc +. r) 0.0 outs in
  let mb_s kind =
    List.fold_left2
      (fun acc (f : Gen.file) (_, r, _) ->
        if f.kind = kind then float_of_int f.bytes /. 1e6 /. r else acc)
      0.0 files outs
  in
  Layers.emit res ~untraced_s:((before +. after) /. 2.0)
    (Layers.stats_values stats
    @ [
       ("ingest.mtx_sorted_mb_s", mb_s "sorted");
       ("ingest.mtx_shuffled_mb_s", mb_s "shuffled");
       ("ingest.tns_mb_s", mb_s "tns");
       ("ingest.parse_share", (read_s -. List.fold_left ( +. ) 0.0 of_coo) /. read_s);
       ("sim.cycles_geomean", Stats.geomean (List.map (fun (c, _, _) -> c) outs));
     ]
    @ gc)
