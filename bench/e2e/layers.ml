(** The per-layer metrics a traced run prints, the same list on every
    workload.  Layers a workload does not exercise read 0.  Layers that
    only some workloads reach are reported as their share of the traced
    in-process wall time; the compile and estimate stages, which every
    workload runs, also as summed self seconds. *)

module Stats_cache = Stardust_tensor.Stats_cache

(** Span names whose share of the traced wall time is reported as
    [<name>.share]. *)
let shared =
  [
    "json.parse"; "protocol.decode"; "workload.resolve"; "service.request_key";
    "plan_cache.lookup"; "compile.schedule"; "compile.plan"; "compile.lower";
    "compile.validate"; "codegen.emit"; "sim.estimate"; "resources.count";
    "stats.fingerprint"; "explore.run"; "explore.strategy"; "eval.prepare";
    "eval.lower_bound"; "prune"; "ingest.read.sorted"; "ingest.read.shuffled";
    "ingest.read.tns"; "tile.plan"; "tile.inputs"; "json.encode";
  ]

(** Span names whose summed self time is reported as [<name>.self_s]. *)
let timed =
  [ "compile.schedule"; "compile.plan"; "compile.lower"; "compile.validate"; "sim.estimate" ]

(** Metrics measured outside the span tree, with their units. *)
let extra =
  [
    ("stats_cache.fill_s", "s");
    ("stats_cache.hit_ratio", "ratio");
    ("plan_cache.hits", "count");
    ("plan_cache.misses", "count");
    ("plan_cache.evictions", "count");
    ("server.transport.share", "%");
    ("explore.full_evals", "count");
    ("explore.estimates", "count");
    ("explore.bound_evals", "count");
    ("pool.efficiency", "ratio");
    ("ingest.mtx_sorted_mb_s", "MB/s");
    ("ingest.mtx_shuffled_mb_s", "MB/s");
    ("ingest.tns_mb_s", "MB/s");
    ("ingest.parse_share", "ratio");
    ("sim.cycles_geomean", "cycles");
    ("gc.alloc_mb_per_op", "MB");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

(** Every per-layer metric name with its unit, in print order. *)
let names =
  List.map (fun n -> (n ^ ".share", "%")) shared
  @ List.map (fun n -> (n ^ ".self_s", "s")) timed
  @ extra

(** Statistics-cache (hits, misses, fill seconds) since its last reset. *)
let stats_count () =
  let c = Stats_cache.counters () in
  (c.Stats_cache.hits, c.Stats_cache.misses, c.Stats_cache.fill_seconds)

let stats_add (h, m, f) (h', m', f') = (h + h', m + m', f +. f')
let stats_sub (h, m, f) (h', m', f') = (h - h', m - m', f -. f')

(** The [stats_cache.*] values of summed activity. *)
let stats_values (hits, misses, fill) =
  [
    ("stats_cache.fill_s", fill);
    ( "stats_cache.hit_ratio",
      if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.0 );
  ]

type gc_mark = { words : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

(** The [gc.*] values for [ops] operations replayed since [m]. *)
let gc_since m ~ops =
  let n = gc_mark () in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  [
    ("gc.alloc_mb_per_op", mb (n.words -. m.words) /. float_of_int (max 1 ops));
    ("gc.major_collections", float_of_int (n.majors - m.majors));
    ("gc.top_heap_mb", mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words));
  ]

(** Print the traced run's metrics: span self times (with [self] replacing
    a layer's measured self seconds where the workload derives it), the
    coverage of the traced wall time ([wall], by default the root spans'
    summed duration) by layers, the tracing overhead against
    [untraced_s] of the same work, and [values] for the rest. *)
let emit (res : Result.t) ?(self = []) ?wall ~untraced_s values =
  let tbl, roots = Spans.layers () in
  let roots = Option.value ~default:roots wall in
  let self_of name =
    match List.assoc_opt name self with
    | Some s -> s
    | None -> (
        match List.assoc_opt name tbl with Some l -> l.Spans.self_s | None -> 0.0)
  in
  let covered = List.fold_left (fun acc n -> acc +. self_of n) 0.0 shared in
  let pct x = if roots > 0.0 then 100.0 *. x /. roots else 0.0 in
  let overhead = if untraced_s > 0.0 then 100.0 *. ((roots /. untraced_s) -. 1.0) else 0.0 in
  let values = ("trace.coverage_pct", pct covered) :: ("trace.overhead_pct", overhead) :: values in
  List.iter
    (fun (name, unit_) ->
      let v =
        match Filename.chop_suffix_opt ~suffix:".share" name with
        | Some layer when List.mem layer shared -> pct (self_of layer)
        | _ -> (
            match Filename.chop_suffix_opt ~suffix:".self_s" name with
            | Some layer when List.mem layer timed -> self_of layer
            | _ -> Option.value ~default:0.0 (List.assoc_opt name values))
      in
      Result.metric res name unit_ v)
    names
