(** Bench-side tracing: spans recorded around the calls the benchmark
    makes into each layer, kept in memory and written out when the run
    ends.  A span's self time is its duration minus the time its child
    spans cover; all spans of one request or search share an [id]. *)

type span = {
  name : string;
  id : int;  (** request or search the span belongs to *)
  sid : int;
  parent : int;  (** [sid] of the enclosing span; -1 for a root *)
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let next_sid = ref 0
let stack : int list ref = ref []
let current_id = ref 0

let reset () =
  recorded := [];
  next_sid := 0;
  stack := [];
  current_id := 0

(** Run [f] inside a span named [name]; a plain call when recording is
    off, so the untraced replay times the same code path. *)
let span name f =
  if not !on then f ()
  else begin
    let sid = !next_sid in
    incr next_sid;
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let id = !current_id in
    stack := sid :: !stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        recorded := { name; id; sid; parent; t0; t1 } :: !recorded)
      f
  end

(** A root span for request or search [id]: every span opened inside it
    carries the same id. *)
let root ~id name f =
  current_id := id;
  span name f

type layer = {
  calls : int;
  self_s : float;  (** summed self time *)
  self_us_p50 : float;  (** median self time of one call *)
}

(** Per-name self times over the recorded spans, and the summed duration
    of the root spans (the traced in-process wall time). *)
let layers () =
  let spans = !recorded in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  let roots = ref 0.0 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      if s.parent < 0 then roots := !roots +. dur;
      let self =
        Float.max 0.0
          (dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.sid))
      in
      Hashtbl.replace by_name s.name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    spans;
  let tbl =
    Hashtbl.fold
      (fun name selfs acc ->
        ( name,
          {
            calls = List.length selfs;
            self_s = List.fold_left ( +. ) 0.0 selfs;
            self_us_p50 = 1e6 *. Stats.median_list selfs;
          } )
        :: acc)
      by_name []
  in
  (List.sort compare tbl, !roots)

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(** [DIR/trace.json] in Chrome trace format and [DIR/layers.json] with
    the root spans' summed time and each layer's calls, summed self time
    and median self time.  Shares are in the run's printed metrics, whose
    denominator a workload may set (see {!Layers.emit}). *)
let write ~dir =
  let module J = Stardust_json.Json in
  let spans = List.rev !recorded in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", J.Num (Float.round ((s.t0 -. origin) *. 1e6)));
        ("dur", J.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", J.Num 1.0);
        ("tid", J.Num 1.0);
        ( "args",
          J.Obj
            [
              ("id", J.Num (float_of_int s.id));
              ("span", J.Num (float_of_int s.sid));
              ("parent", J.Num (float_of_int s.parent));
            ] );
      ]
  in
  write_file
    (Filename.concat dir "trace.json")
    (J.to_string (J.Obj [ ("traceEvents", J.Arr (List.map event spans)) ]));
  let tbl, roots = layers () in
  write_file
    (Filename.concat dir "layers.json")
    (J.to_string
       (J.Obj
          [
            ("wall_s", J.Num roots);
            ( "layers",
              J.Obj
                (List.map
                   (fun (name, l) ->
                     ( name,
                       J.Obj
                         [
                           ("calls", J.Num (float_of_int l.calls));
                           ("self_s", J.Num l.self_s);
                           ("self_us_p50", J.Num l.self_us_p50);
                         ] ))
                   tbl) );
          ]))
