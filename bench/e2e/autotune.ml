(** The autotune workload: in-process design-space searches over the
    paper's Table 4 kernel-dataset bindings.  Each round, per instance:
    a cold-statistics successive-halving search with a budget of 24
    full evaluations, then an exhaustive search with warm statistics,
    both over {!Space.efficiency_axes} on one two-worker {!Pool}. *)

module Explore = Stardust_explore.Explore
module Eval = Stardust_explore.Eval
module Space = Stardust_explore.Space
module Pool = Stardust_explore.Pool
module Point = Stardust_explore.Point
module Prune = Stardust_explore.Prune
module Auto = Stardust_core.Autoschedule
module Schedule = Stardust_schedule.Schedule
module Arch = Stardust_capstan.Arch
module Sim = Stardust_capstan.Sim
module Stats_cache = Stardust_tensor.Stats_cache

type config = { seed : int; seconds : float; scale : int }

let now = Unix.gettimeofday

let strategies = [ (Explore.Halving, Some 24); (Explore.Exhaustive, None) ]

let axes (p : Eval.problem) =
  Space.efficiency_axes ~arch:p.Eval.config.Sim.arch ~formats:p.Eval.formats p.Eval.expr

(** One round: every instance's two searches, each timed.  Returns the
    results and times in (instance, strategy) order. *)
let round_results ?pool ?workers (insts : Gen.instance list) =
  List.concat_map
    (fun (inst : Gen.instance) ->
      List.map
        (fun (strategy, budget) ->
          if strategy = Explore.Halving then Stats_cache.reset ();
          let t0 = now () in
          let r =
            Explore.run ?pool ?workers ~strategy ?budget ~axes:(axes inst.problem)
              inst.problem
          in
          (r, now () -. t0))
        strategies)
    insts

(** What a timed round keeps of each search. *)
type search = { strategy : Explore.strategy; best : Eval.eval option; time : float }

let round ~pool insts =
  List.map
    (fun ((r : Explore.result), time) ->
      { strategy = r.Explore.strategy; best = r.Explore.best; time })
    (round_results ~pool insts)

(** Table 4's datasets at half their dimensions: paper scale takes ~15 s
    to generate and ~3 GB of memory per run, too much for a benchmark
    that runs dozens of times on a shared two-core box. *)
let dataset_scale = 2

let generate cfg =
  let t0 = now () in
  let insts = Gen.table4 ~scale:(dataset_scale * cfg.scale) ~seed:cfg.seed () in
  Printf.printf "generated %d Table 4 instances in %.1f s (untimed)\n%!"
    (List.length insts) (now () -. t0);
  insts

let best_cycles s = Option.bind s.best Eval.cycles

let label (inst : Gen.instance) strategy =
  Printf.sprintf "%s/%s %s" inst.kernel inst.dataset (Explore.strategy_name strategy)

(** Every search is one operation: its best cycles must match the first
    round's, and a best point's cycles must be reproduced by an uncached
    {!Eval.compute}.  Exhaustive search must find a best point, and it
    must not lose to halving's (which may find none within its budget). *)
let check (res : Result.t) insts ~first rounds =
  let last = List.nth rounds (List.length rounds - 1) in
  let pairs = List.combine (List.concat_map (fun i -> [ i; i ]) insts) last in
  let show = Option.fold ~none:"none" ~some:string_of_float in
  let recomputed =
    Checks.uncached (fun () ->
        List.map
          (fun ((inst : Gen.instance), s) ->
            Option.bind s.best (fun b -> Eval.cycles (Eval.compute inst.problem b.Eval.point)))
          pairs)
  in
  List.iter
    (fun searches ->
      List.iter2
        (fun s f ->
          Result.op res (best_cycles s = best_cycles f) "%s: best cycles %s, first round %s"
            (Explore.strategy_name s.strategy) (show (best_cycles s)) (show (best_cycles f)))
        searches first)
    rounds;
  List.iter2
    (fun ((inst : Gen.instance), s) again ->
      Result.op res (again = best_cycles s)
        "%s: best cycles %s, uncached Eval.compute %s" (label inst s.strategy)
        (show (best_cycles s)) (show again))
    pairs recomputed;
  let rec by_instance = function
    | ((inst : Gen.instance), h) :: (_, e) :: rest ->
        Result.op res
          (match (best_cycles e, best_cycles h) with
          | Some ce, Some ch -> ce <= ch
          | Some _, None -> true
          | None, _ -> false)
          "%s: best cycles %s, halving's %s" (label inst e.strategy) (show (best_cycles e))
          (show (best_cycles h));
        by_instance rest
    | _ -> ()
  in
  by_instance pairs

let run cfg (res : Result.t) =
  let insts = generate cfg in
  let t0 = now () in
  let pool = Pool.create ~workers:2 () in
  let first = round ~pool insts in
  let setup_s = now () -. t0 in
  let rounds = ref [] in
  let t1 = now () in
  while !rounds = [] || now () -. t1 < cfg.seconds do
    rounds := round ~pool insts :: !rounds
  done;
  let elapsed = now () -. t1 in
  Pool.shutdown pool;
  let rounds = List.rev !rounds in
  let searches = List.length first in
  let per_search =
    Array.init searches (fun k ->
        Stats.median_list (List.map (fun r -> (List.nth r k).time) rounds))
  in
  Printf.printf "%d timed rounds of %d searches\n" (List.length rounds) searches;
  check res insts ~first rounds;
  Checks.functional res (Gen.small_problems ~seed:cfg.seed);
  Result.metric res "setup_s" "s" setup_s;
  Result.metric res "latency_ms" "ms" (1000.0 *. Stats.geomean (Array.to_list per_search));
  Result.metric res "tail_ms" "ms" (1000.0 *. Array.fold_left Float.max 0.0 per_search);
  Result.metric res "throughput_per_s" "1/s"
    (float_of_int (searches * List.length rounds) /. elapsed);
  Result.metric res "peak_rss_mb" "MB" (Option.value ~default:0.0 (Stats.self_vmhwm_mb ()))

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

(** Re-evaluate one point through the stages {!Eval.compute} runs, each
    in its span; the point's cycles, or [None] where it is pruned. *)
let replay_point (p : Eval.problem) (pt : Point.t) =
  let arch = p.Eval.config.Sim.arch in
  match
    let d =
      {
        Auto.order = pt.Point.order;
        inner_par = pt.Point.inner_par;
        outer_par = pt.Point.outer_par;
      }
    in
    let sched =
      Spans.span "compile.schedule" (fun () ->
          let s = Auto.schedule_point ~formats:p.Eval.formats p.Eval.expr d in
          match pt.Point.split with
          | None -> s
          | Some (v, c) -> Schedule.split_up s v (v ^ "_o") (v ^ "_i") c)
    in
    let sram_budget =
      match pt.Point.gather with
      | Point.Auto -> None
      | Point.On_chip -> Some (arch.Arch.num_pmu * Arch.pmu_words arch)
      | Point.Off_chip -> Some 0
    in
    Checks.compile_traced ?sram_budget ~name:p.Eval.name sched ~inputs:p.Eval.inputs
  with
  | exception _ -> None
  | compiled -> (
      match Spans.span "prune" (fun () -> Prune.check ~arch compiled) with
      | Prune.Reject _ -> None
      | Prune.Pass _ -> (
          match
            Spans.span "sim.estimate" (fun () -> Sim.estimate ~config:p.Eval.config compiled)
          with
          | report -> Some report.Sim.cycles
          | exception Sim.Sim_error _ -> None))

(** Replay one search: the statistics warm-up, the bounds a halving
    search ranks with, then every evaluated point.  Each replayed point
    must reproduce the search's cycles. *)
let replay (res : Result.t) (inst : Gen.instance) (r : Explore.result) =
  let p = inst.problem in
  let pre = Spans.span "eval.prepare" (fun () -> Eval.prepare p) in
  if r.Explore.strategy = Explore.Halving then begin
    let pts = Space.points ~formats:p.Eval.formats p.Eval.expr (axes p) in
    Spans.span "eval.lower_bound" (fun () ->
        List.iter (fun pt -> ignore (Eval.lower_bound pre pt)) pts);
    Result.op res (List.length pts = r.Explore.bound_evals)
      "%s: %d bounds replayed, the search computed %d" (label inst r.Explore.strategy)
      (List.length pts)
      r.Explore.bound_evals
  end;
  let mismatches =
    List.filter
      (fun (e : Eval.eval) -> replay_point p e.Eval.point <> Eval.cycles e)
      r.Explore.evaluated
  in
  Result.op res (mismatches = []) "%s: %d replayed points differ from the search"
    (label inst r.Explore.strategy) (List.length mismatches)

let trace cfg (res : Result.t) =
  let insts = generate cfg in
  let pool = Pool.create ~workers:2 () in
  let parallel = round_results ~pool insts in
  Pool.shutdown pool;
  (* one-worker rounds before and after the traced one, so neither side
     gets the warmer process *)
  let untraced () =
    List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 (round_results ~workers:1 insts)
  in
  let before = untraced () in
  let mark = Layers.gc_mark () in
  Spans.on := true;
  let id = ref 0 in
  let stats = ref (0, 0, 0.0) in
  let traced =
    List.concat_map
      (fun (inst : Gen.instance) ->
        List.map
          (fun (strategy, budget) ->
            incr id;
            let cold = strategy = Explore.Halving in
            if cold then Stats_cache.reset ();
            let before = Layers.stats_count () in
            let t0 = now () in
            let r =
              Spans.root ~id:!id "search" (fun () ->
                  Spans.span "explore.run" (fun () ->
                      Explore.run ~workers:1 ~strategy ?budget ~axes:(axes inst.problem)
                        inst.problem))
            in
            let run_s = now () -. t0 in
            stats := Layers.stats_add !stats (Layers.stats_sub (Layers.stats_count ()) before);
            if cold then Stats_cache.reset ();
            let t1 = now () in
            Spans.root ~id:!id "replay" (fun () -> replay res inst r);
            (r, run_s, now () -. t1))
          strategies)
      insts
  in
  Spans.on := false;
  let gc = Layers.gc_since mark ~ops:(List.length traced) in
  let untraced_s = (before +. untraced ()) /. 2.0 in
  (* explore.strategy: the searches' wall time less the time their
     replay of the evaluation layers took *)
  let wall = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 traced in
  let strategy =
    Float.max 0.0 (wall -. List.fold_left (fun acc (_, _, replay_s) -> acc +. replay_s) 0.0 traced)
  in
  let results = List.map (fun (r, _, _) -> r) traced in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
  let par_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 parallel in
  Layers.emit res ~wall ~untraced_s
    ~self:[ ("explore.strategy", strategy); ("explore.run", 0.0) ]
    (Layers.stats_values !stats
    @ [
       ("explore.full_evals", sum (fun r -> List.length r.Explore.evaluated));
       ("explore.estimates", sum Explore.estimate_count);
       ("explore.bound_evals", sum (fun r -> r.Explore.bound_evals));
       ("pool.efficiency", untraced_s /. (2.0 *. par_s));
       ( "sim.cycles_geomean",
         Stats.geomean
           (List.filter_map
              (fun (r : Explore.result) ->
                if r.Explore.strategy = Explore.Exhaustive then
                  Option.bind r.Explore.best Eval.cycles
                else None)
              results) );
     ]
    @ gc)
