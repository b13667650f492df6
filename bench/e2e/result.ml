(** One run's outcome: the operation tally and the metrics, printed as
    the last line of standard output. *)

module J = Stardust_json.Json

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
}

let create () = { attempted = 0; failed = 0; metrics = [] }

(** Count one operation; a wrong or failed one prints its reason on
    standard error. *)
let op t ok fmt =
  Printf.ksprintf
    (fun reason ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        prerr_endline ("e2e: FAILED: " ^ reason)
      end)
    fmt

let metric t name unit_ value = t.metrics <- (name, value, unit_) :: t.metrics

let to_json t =
  J.Obj
    [
      ("correct", J.Bool (t.failed = 0));
      ("attempted", J.Num (float_of_int t.attempted));
      ("failed", J.Num (float_of_int t.failed));
      ( "metrics",
        J.Obj
          (List.rev_map
             (fun (name, value, unit_) ->
               (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit_) ]))
             t.metrics) );
    ]

let print t = print_endline (J.to_string (to_json t))
