(** [e2e.exe compare --base A/*.json --new B/*.json]: the saved standard
    output of runs of two commits, compared per (metric, workload) by the
    rule the benchmark's regression bounds are stated in. *)

module J = Stardust_json.Json

type run = { workload : string; metrics : (string * float) list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** A saved run: its header line names the workload, its last line holds
    the metrics. *)
let load path =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file path))
  in
  let workload =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "e2e: workload=%s " Fun.id)
      lines
  in
  match (workload, List.rev lines) with
  | Some workload, last :: _ -> (
      match J.member "metrics" (J.parse last) with
      | Some (J.Obj ms) ->
          {
            workload;
            metrics =
              List.filter_map
                (fun (name, m) ->
                  match J.member "value" m with Some (J.Num v) -> Some (name, v) | _ -> None)
                ms;
          }
      | _ -> failwith (path ^ ": last line has no metrics"))
  | _ -> failwith (path ^ ": not the output of an e2e run")

(** Direction and bound of every metric BENCHMARK.json declares. *)
let spec path =
  let j = J.parse (read_file path) in
  let section k =
    match J.member k j with Some (J.Arr l) -> l | _ -> []
  in
  List.filter_map
    (fun m ->
      match (J.member "name" m, J.member "better" m) with
      | Some (J.Str name), Some (J.Str better) ->
          let bound = match J.member "bound" m with Some (J.Num b) -> Some b | _ -> None in
          Some (name, (better = "higher", bound))
      | _ -> None)
    (section "end_to_end" @ section "per_layer")

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(** A gain needs at least 9 of 10 pairs won and medians further apart
    than the base's interquartile range.  With a bound, a base spread
    wider than the bound leaves the metric unresolved unless every new
    run beats every base run, and the new median may be worse than the
    base's by at most the bound; without one, a loss needs the same
    evidence as a gain. *)
let judge ~higher ~bound base fresh =
  let better a b = if higher then a > b else a < b in
  let q1, mb, q3 = Stats.quartiles base in
  let _, mn, _ = Stats.quartiles fresh in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base fresh in
  let won = List.length (List.filter (fun (b, n) -> better n b) pairs)
  and lost = List.length (List.filter (fun (b, n) -> better b n) pairs) in
  let n = float_of_int (max 1 (List.length pairs)) in
  let apart = Float.abs (mn -. mb) > q3 -. q1 in
  let spread = if mb <> 0.0 then (q3 -. q1) /. Float.abs mb else 0.0 in
  let all_better =
    List.for_all (fun x -> List.for_all (fun b -> better x b) base) fresh
  in
  let worse_share =
    if mb <> 0.0 then (if higher then mb -. mn else mn -. mb) /. Float.abs mb else 0.0
  in
  let v =
    if float_of_int won >= 0.9 *. n && apart && better mn mb then Improved
    else
      match bound with
      | Some b when spread > b -> if all_better then Improved else Unresolved
      | Some b -> if worse_share > b then Regressed else Unchanged
      | None ->
          if float_of_int lost >= 0.9 *. n && apart && better mb mn then Regressed
          else Unchanged
  in
  (v, float_of_int won /. n)

let run ~spec_path ~base ~fresh =
  let spec = spec spec_path in
  let base = List.map load base and fresh = List.map load fresh in
  let keys =
    List.sort_uniq compare
      (List.concat_map
         (fun r -> List.map (fun (m, _) -> (m, r.workload)) r.metrics)
         (base @ fresh))
  in
  let values runs (m, w) =
    List.filter_map (fun r -> if r.workload = w then List.assoc_opt m r.metrics else None) runs
  in
  Printf.printf "%-28s %-11s %14s %26s %14s %26s %6s  %s\n" "metric" "workload" "base median"
    "base [q1, q3]" "new median" "new [q1, q3]" "won" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun key ->
      let b = values base key and f = values fresh key in
      if b <> [] && f <> [] then begin
        let higher, bound = Option.value ~default:(false, None) (List.assoc_opt (fst key) spec) in
        let v, won = judge ~higher ~bound b f in
        if v = Regressed then incr regressions;
        let q1, m, q3 = Stats.quartiles b and r1, n, r3 = Stats.quartiles f in
        Printf.printf "%-28s %-11s %14.6g %26s %14.6g %26s %5.0f%%  %s\n" (fst key) (snd key) m
          (Printf.sprintf "[%.6g, %.6g]" q1 q3)
          n
          (Printf.sprintf "[%.6g, %.6g]" r1 r3)
          (100.0 *. won) (verdict_name v)
      end)
    keys;
  !regressions
