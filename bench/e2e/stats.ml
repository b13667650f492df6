(** Summary statistics shared by the workloads and [compare]. *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(** Nearest-rank percentile [q] in [0, 100]; 0 for an empty array. *)
let percentile a q =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let median_list l = median (Array.of_list l)

let geomean l =
  match List.filter (fun x -> x > 0.0) l with
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(** Quartiles as Python's [statistics.quantiles(values, n=4)] computes
    them (the default "exclusive" method), so the spreads [compare]
    prints match the ones the benchmark's acceptance rule is stated in.
    Needs at least two values; one value is its own quartiles. *)
let quartiles l =
  let s = sorted_copy (Array.of_list l) in
  let n = Array.length s in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (s.(0), s.(0), s.(0))
  else
    let q k =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (k * m / 4)) in
      let delta = float_of_int ((k * m) - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(** Peak resident set ([VmHWM]) of a process in MB, from
    [/proc/<pid>/status]; [None] where procfs is unavailable. *)
let vmhwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> Some (float_of_int kb /. 1024.0))
                else scan ()
          in
          scan ())

let self_vmhwm_mb () = vmhwm_mb (Unix.getpid ())
