(** End-to-end benchmark of the compiler, autotuner and compile service.

    {v
    e2e.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
    e2e.exe trace --workload W [--seed N] [--out DIR]
    e2e.exe compare [--spec BENCHMARK.json] --base A/*.json --new B/*.json
    e2e.exe smoke --stardustc PATH
    v}

    [run] prints a header line, a few human-readable lines and, last, one
    JSON object with the operation tally and the metrics: the end-to-end
    metrics untraced, the per-layer ones with [--trace 1] (which also
    writes [DIR/trace.json] and [DIR/layers.json]).  Workloads, rates and
    phase lengths are fixed here and in BENCHMARK.json; see README.md. *)

let workloads = [ "serve-hot"; "serve-cold"; "autotune"; "ingest" ]

(** Open-loop arrival rates (requests per second) of the serve workloads. *)
let hot_rate = 150.0
let cold_rate = 100.0

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  stardustc : string;
  tmp : string;
  scale : int;  (** input shrink factor; 1 except in the smoke test *)
}

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Run one workload and return its tally and metrics. *)
let execute o =
  let res = Result.create () in
  Printf.printf "e2e: workload=%s seed=%d seconds=%g trace=%d\n%!" o.workload o.seed o.seconds
    (if o.trace then 1 else 0);
  let tmp = Filename.concat o.tmp (string_of_int (Unix.getpid ())) in
  mkdir_p tmp;
  Spans.reset ();
  Fun.protect
    ~finally:(fun () -> remove tmp)
    (fun () ->
      match o.workload with
      | "serve-hot" | "serve-cold" ->
          let hot = o.workload = "serve-hot" in
          let cfg =
            {
              Serve.hot;
              rate = (if hot then hot_rate else cold_rate);
              stardustc = o.stardustc;
              tmp;
              seed = o.seed;
              seconds = o.seconds;
              trace_lines = (if hot then 400 else 150) / o.scale;
            }
          in
          (if o.trace then Serve.trace else Serve.run) cfg res
      | "autotune" ->
          let cfg = { Autotune.seed = o.seed; seconds = o.seconds; scale = o.scale } in
          (if o.trace then Autotune.trace else Autotune.run) cfg res
      | "ingest" ->
          let cfg = { Ingest.seed = o.seed; seconds = o.seconds; tmp; scale = o.scale } in
          (if o.trace then Ingest.trace else Ingest.run) cfg res
      | w ->
          Printf.eprintf "e2e: unknown workload %S (try %s)\n" w (String.concat ", " workloads);
          exit 2);
  (if o.trace then
     let dir =
       match o.out with
       | Some d -> d
       | None -> Printf.sprintf ".bench_out/%s-seed%d" o.workload o.seed
     in
     mkdir_p dir;
     Spans.write ~dir);
  res

let usage () =
  prerr_endline
    "usage: e2e.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
    \       e2e.exe trace --workload W [--seed N] [--out DIR]\n\
    \       e2e.exe compare [--spec BENCHMARK.json] --base FILES.. --new FILES..\n\
    \       e2e.exe smoke --stardustc PATH";
  exit 2

let parse ~trace args =
  let o =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace;
        out = None;
        stardustc = "_build/default/bin/stardustc.exe";
        tmp = ".bench_tmp";
        scale = 1;
      }
  in
  let rec go = function
    | "--workload" :: w :: rest -> o := { !o with workload = w }; go rest
    | "--seed" :: n :: rest -> o := { !o with seed = int_of_string n }; go rest
    | "--seconds" :: s :: rest -> o := { !o with seconds = float_of_string s }; go rest
    | "--trace" :: t :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--out" :: d :: rest -> o := { !o with out = Some d }; go rest
    | "--stardustc" :: p :: rest -> o := { !o with stardustc = p }; go rest
    | "--tmp" :: d :: rest -> o := { !o with tmp = d }; go rest
    | [] -> !o
    | _ -> usage ()
  in
  go args

(** Every workload, untraced and traced, for about a second on shrunken
    inputs with the run's checks: fails when any operation fails, so a
    library change that breaks a call the benchmark makes fails the
    test suite. *)
let smoke args =
  let base = parse ~trace:false args in
  let failed =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun trace ->
            let scale = match workload with "ingest" -> 4 | _ -> 8 in
            let res = execute { base with workload; trace; seconds = 1.0; scale } in
            Result.print res;
            if res.Result.failed = 0 && res.Result.attempted > 0 then None
            else Some (Printf.sprintf "%s%s" workload (if trace then " (traced)" else "")))
          [ false; true ])
      workloads
  in
  if failed <> [] then begin
    Printf.eprintf "e2e smoke: failed: %s\n" (String.concat ", " failed);
    exit 1
  end

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> Result.print (execute (parse ~trace:false args))
  | "trace" :: args -> Result.print (execute (parse ~trace:true args))
  | "smoke" :: args -> smoke args
  | "compare" :: args ->
      let rec files acc = function
        | f :: rest when String.length f < 2 || String.sub f 0 2 <> "--" -> files (f :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let rec go spec base fresh = function
        | "--spec" :: s :: rest -> go s base fresh rest
        | "--base" :: rest ->
            let b, rest = files [] rest in
            go spec b fresh rest
        | "--new" :: rest ->
            let f, rest = files [] rest in
            go spec base f rest
        | [] when base <> [] && fresh <> [] -> (spec, base, fresh)
        | _ -> usage ()
      in
      let spec_path, base, fresh = go "BENCHMARK.json" [] [] args in
      if Compare.run ~spec_path ~base ~fresh > 0 then exit 1
  | _ -> usage ()

(* [exit] runs the at_exit handler that stops any daemon still running,
   also when the run is interrupted or fails *)
let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  try main ()
  with e ->
    Printf.eprintf "e2e: %s\n" (Printexc.to_string e);
    exit 2
