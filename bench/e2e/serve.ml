(** The serve workloads: a real [stardustc serve --socket] daemon driven
    over the NDJSON protocol by this single-threaded process, through at
    most two connections.

    A run sets the daemon up three times (spawn to first pong, then a
    warm-up pass over the workload's warm-up requests) and keeps the
    third.  It then offers an open loop — jittered arrivals at a fixed
    rate, pipelined over one connection, each request timed from when it
    was due — and a closed-loop saturation phase in which each of two
    connections sends its next request as soon as the previous answer
    arrives.  Every answer is checked; a seeded tenth of them is
    recomputed in-process afterwards. *)

module J = Stardust_json.Json
module P = Stardust_serve.Protocol
module Service = Stardust_serve.Service
module Server = Stardust_serve.Server
module Plan_cache = Stardust_serve.Plan_cache
module Client = Stardust_serve.Client
module W = Stardust_serve.Workload
module K = Stardust_core.Kernels
module C = Stardust_core.Compile
module Cin = Stardust_ir.Cin
module S = Stardust_schedule.Schedule
module Sim = Stardust_capstan.Sim
module Resources = Stardust_capstan.Resources
module T = Stardust_tensor.Tensor
module Stats_cache = Stardust_tensor.Stats_cache
module Eval = Stardust_explore.Eval
module Explore = Stardust_explore.Explore
module Prng = Stardust_workloads.Prng

type config = {
  hot : bool;  (** serve-hot; serve-cold otherwise *)
  rate : float;  (** open-loop arrivals per second *)
  stardustc : string;
  tmp : string;
  seed : int;
  seconds : float;
  trace_lines : int;  (** lines the traced replay runs after the warm-up *)
}

(** Share of [--seconds] given to the open loop; the rest is the
    closed-loop saturation phase, whose rate settles in a few seconds. *)
let open_share = 0.8

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Core placement                                                      *)
(* ------------------------------------------------------------------ *)

(** The load generator runs on the first CPU this process may use and
    the daemon on the second, so neither's work competes with the other's
    for a core: unpinned, the open-loop median moved by +-14% between runs
    of one seed, pinned by +-3%.  Without [taskset] or a second CPU, or if
    pinning fails, both run unpinned. *)
let taskset =
  List.find_opt Sys.file_exists
    (List.map
       (fun dir -> Filename.concat dir "taskset")
       (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH"))))

(** The CPUs of this process's [Cpus_allowed_list] ("0-1", "2,5-7"). *)
let allowed_cpus () =
  let expand part =
    match String.split_on_char '-' (String.trim part) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> []
  in
  match In_channel.with_open_bin "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "Cpus_allowed_list: %s" (fun l ->
              List.concat_map expand (String.split_on_char ',' l)))
        (String.split_on_char '\n' status)
      |> Option.value ~default:[]

(** [taskset] and the daemon's CPU, once this process is pinned. *)
let daemon_cpu = ref None

let pin_self () =
  let quiet argv =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid = Unix.create_process argv.(0) argv null null null in
    Unix.close null;
    snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  in
  match (taskset, allowed_cpus ()) with
  | Some t, gen :: daemon :: _
    when quiet [| t; "-p"; "-c"; string_of_int gen; string_of_int (Unix.getpid ()) |] ->
      daemon_cpu := Some (t, string_of_int daemon)
  | _ -> print_endline "load generator and daemon unpinned (no taskset or no second CPU)"

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; log : string }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn cfg k =
  let sock =
    Filename.concat cfg.tmp (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k)
  in
  let log = sock ^ ".log" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = [| cfg.stardustc; "serve"; "--socket"; sock; "--workers"; "2" |] in
  let argv =
    match !daemon_cpu with Some (t, cpu) -> Array.append [| t; "-c"; cpu |] argv | None -> argv
  in
  let pid = Unix.create_process argv.(0) argv null null err in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  { pid; sock; log }

(** Connect and ping until the daemon answers [pong]. *)
let wait_ready d =
  let deadline = now () +. 60.0 in
  let rec go () =
    match Client.connect d.sock with
    | c -> (
        match Client.rpc c (J.Obj [ ("op", J.Str "ping") ]) with
        | r when J.member "result" r = Some (J.Str "pong") -> c
        | _ | (exception _) ->
            Client.close c;
            retry ())
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    if now () > deadline then
      failwith
        ("daemon did not answer ping within 60 s: "
        ^ In_channel.with_open_bin d.log In_channel.input_all);
    Unix.sleepf 0.005;
    go ()
  in
  go ()

let stop d c =
  (try ignore (Client.rpc c (J.Obj [ ("op", J.Str "shutdown") ]))
   with _ -> ());
  Client.close c;
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live

(* ------------------------------------------------------------------ *)
(* Requests and answers                                                *)
(* ------------------------------------------------------------------ *)

let line_json ~first_id = function
  | Gen.Single r -> (Gen.request_json ~id:first_id r, [ (first_id, r) ])
  | Gen.Batch rs ->
      let items = List.mapi (fun k r -> (first_id + k, r)) rs in
      (J.Arr (List.map (fun (id, r) -> Gen.request_json ~id r) items), items)

(** Answers to the items of one line, in item order, or [None] when the
    line is not the right shape. *)
let answers items resp =
  match (items, resp) with
  | [ _ ], (J.Obj _ as o) -> Some [ o ]
  | _, J.Arr l when List.length l = List.length items -> Some l
  | _ -> None

(** Verification samples: (request, its [result]) pairs. *)
type sampler = { pick : Prng.t; mutable samples : (Gen.req * J.t) list }

let check_answer (res : Result.t) sampler items resp =
  match answers items resp with
  | None ->
      List.iter
        (fun (id, _) -> Result.op res false "request %d: malformed answer" id)
        items
  | Some outs ->
      List.iter2
        (fun (id, r) o ->
          let ok = J.member "ok" o = Some (J.Bool true) in
          let echo = J.member "id" o = Some (J.Num (float_of_int id)) in
          Result.op res (ok && echo) "request %d (%s %s n=%d): ok=%b id echoed=%b: %s"
            id r.Gen.op r.Gen.kernel r.Gen.n ok echo
            (if ok then "" else J.to_string o);
          match J.member "result" o with
          | Some result when ok && Prng.int sampler.pick 10 = 0 ->
              sampler.samples <- (r, result) :: sampler.samples
          | _ -> ())
        items outs

(* ------------------------------------------------------------------ *)
(* Load generation over non-blocking sockets                           *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable out : string;  (** bytes not yet written *)
  inbuf : Buffer.t;
}

type inflight = {
  ci : int;
  items : (int * Gen.req) list;
  due : float;
}

type load = {
  conns : conn array;
  inflight : (int, inflight) Hashtbl.t;  (** by the line's first id *)
  mutable next_id : int;
  res : Result.t;
  sampler : sampler;
}

let connect_load sock res sampler =
  let conns =
    Array.init 2 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        Unix.set_nonblock fd;
        { fd; out = ""; inbuf = Buffer.create 65536 })
  in
  { conns; inflight = Hashtbl.create 1024; next_id = 1; res; sampler }

let close_load l = Array.iter (fun c -> Unix.close c.fd) l.conns

let flush_out c =
  let len = String.length c.out in
  if len > 0 then
    match Unix.single_write_substring c.fd c.out 0 len with
    | n -> c.out <- String.sub c.out n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()

let send l ci line ~due =
  let json, items = line_json ~first_id:l.next_id line in
  Hashtbl.replace l.inflight l.next_id { ci; items; due };
  l.next_id <- l.next_id + List.length items;
  let c = l.conns.(ci) in
  c.out <- c.out ^ J.to_string json ^ "\n";
  flush_out c

let first_id_of = function
  | J.Obj _ as o -> J.member "id" o
  | J.Arr (o :: _) -> J.member "id" o
  | _ -> None

(** Wait up to [timeout] for socket activity, write what is pending and
    check every complete answer line: [on_answer line t] runs once per
    answered line, with the time [t] its answer was read. *)
let pump l ~timeout ~on_answer =
  let reads = Array.to_list (Array.map (fun c -> c.fd) l.conns) in
  let writes =
    List.filter_map
      (fun c -> if c.out <> "" then Some c.fd else None)
      (Array.to_list l.conns)
  in
  match Unix.select reads writes [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      Array.iter (fun c -> if List.mem c.fd writable then flush_out c) l.conns;
      let buf = Bytes.create 65536 in
      Array.iter
        (fun c ->
          if List.mem c.fd readable then begin
            let n =
              try Unix.read c.fd buf 0 (Bytes.length buf)
              with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
            in
            if n = 0 then failwith "daemon closed a load connection";
            if n > 0 then begin
              Buffer.add_subbytes c.inbuf buf 0 n;
              let data = Buffer.contents c.inbuf in
              match String.rindex_opt data '\n' with
              | None -> ()
              | Some last ->
                  Buffer.clear c.inbuf;
                  Buffer.add_string c.inbuf
                    (String.sub data (last + 1) (String.length data - last - 1));
                  let t = now () in
                  List.iter
                    (fun line ->
                      if line <> "" then
                        match J.parse line with
                        | exception J.Parse_error (m, _) ->
                            Result.op l.res false "unparseable answer: %s" m
                        | resp -> (
                            let key =
                              match first_id_of resp with
                              | Some (J.Num f) -> int_of_float f
                              | _ -> -1
                            in
                            match Hashtbl.find_opt l.inflight key with
                            | None ->
                                Result.op l.res false "answer for unknown id: %s" line
                            | Some fl ->
                                Hashtbl.remove l.inflight key;
                                check_answer l.res l.sampler fl.items resp;
                                on_answer fl t))
                    (String.split_on_char '\n' (String.sub data 0 last))
            end
          end)
        l.conns

(** Lines still unanswered at the drain deadline count as failed. *)
let drain l ~deadline ~on_answer =
  while Hashtbl.length l.inflight > 0 && now () < deadline do
    pump l ~timeout:0.05 ~on_answer
  done;
  Hashtbl.iter
    (fun _ fl ->
      List.iter
        (fun (id, _) -> Result.op l.res false "request %d: no answer" id)
        fl.items)
    l.inflight;
  Hashtbl.reset l.inflight

let drain_grace = 30.0

(** The generator polls without sleeping for the last [spin] seconds
    before a request is due: waking a sleeping virtual CPU made it send up
    to 1.4 ms late (p99); spinning keeps lateness near 0.05 ms. *)
let spin = 0.002

(** Open loop: line [k] is due at [t0 + schedule.(k)], pipelined on the
    first connection.  One connection keeps the daemon's handling in
    arrival order: spread over two, its connection threads take turns on
    the runtime lock and the median moved by +-8% between runs.  Returns
    each line's latency from its due time and how late the generator
    sent it. *)
let open_loop l ~schedule ~next_line =
  let n = Array.length schedule in
  let lat = ref [] and late = ref [] in
  let on_answer fl t = lat := (t -. fl.due) :: !lat in
  let t0 = now () +. 0.01 in
  let i = ref 0 in
  while !i < n do
    let t = now () in
    while !i < n && t0 +. schedule.(!i) <= t do
      let due = t0 +. schedule.(!i) in
      late := (t -. due) :: !late;
      send l 0 (next_line ()) ~due;
      incr i
    done;
    if !i < n then
      pump l ~timeout:(Float.max 0.0 (t0 +. schedule.(!i) -. now () -. spin)) ~on_answer
  done;
  drain l ~deadline:(now () +. drain_grace) ~on_answer;
  (Array.of_list !lat, Array.of_list !late)

(** Closed loop for [duration] seconds: each connection keeps one line
    outstanding.  Returns requests (batch items count singly) answered
    per second. *)
let closed_loop l ~duration ~next_line =
  let items = ref 0 in
  let t0 = now () in
  let stop_at = t0 +. duration in
  let send_next ci = send l ci (next_line ()) ~due:(now ()) in
  let last = ref t0 in
  let on_answer fl t =
    items := !items + List.length fl.items;
    last := t;
    if t < stop_at then send_next fl.ci
  in
  send_next 0;
  send_next 1;
  while Hashtbl.length l.inflight > 0 && now () < stop_at +. drain_grace do
    pump l ~timeout:0.05 ~on_answer
  done;
  drain l ~deadline:(now ()) ~on_answer;
  float_of_int !items /. (!last -. t0)

(* ------------------------------------------------------------------ *)
(* In-process recomputation of sampled answers                         *)
(* ------------------------------------------------------------------ *)

let stage_of (r : Gen.req) =
  match K.find r.Gen.kernel with
  | Some spec -> (spec, List.hd spec.K.stages)
  | None -> failwith ("unknown kernel " ^ r.Gen.kernel)

let request_of (r : Gen.req) =
  match P.request_of_json (Gen.request_json ~id:0 r) with
  | Ok q -> q
  | Error _ -> failwith "generated request does not decode"

let field path j =
  List.fold_left
    (fun acc k -> match acc with Some v -> J.member k v | None -> None)
    (Some j) path

let at path result =
  match field path result with Some j -> J.to_string j | None -> "<missing>"

(** The fields of [r]'s answer the check compares: each a name, how to
    read it from the daemon's [result], and its value recomputed from the
    library (with the statistics cache off). *)
let recompute (r : Gen.req) : (string * (J.t -> string) * string) list =
  let spec, st = stage_of r in
  let config = Service.config_of_request (request_of r) in
  let inputs = W.stage_random_inputs st r.Gen.n in
  let num f = J.to_string (J.Num f) in
  let usage_fields (u : Resources.usage) =
    List.map
      (fun (k, v) -> ("resources." ^ k, at [ "resources"; k ], num (float_of_int v)))
      [
        ("pcu", u.Resources.pcu); ("pmu", u.Resources.pmu);
        ("mc", u.Resources.mc); ("shuffle", u.Resources.shuffle);
      ]
  in
  match r.Gen.op with
  | "estimate" ->
      let c = K.compile_stage spec st ~inputs in
      let rep = Sim.estimate ~config c in
      [
        ("cycles", at [ "report"; "cycles" ], num rep.Sim.cycles);
        ("streamed_bytes", at [ "report"; "streamed_bytes" ], num rep.Sim.streamed_bytes);
        ("iterations", at [ "report"; "iterations" ], num rep.Sim.iterations);
      ]
      @ usage_fields (Resources.count config.Sim.arch c)
  | "compile" ->
      let c = K.compile_stage spec st ~inputs in
      let emit = if r.Gen.emit = [] then [ "code"; "resources" ] else r.Gen.emit in
      let text name s =
        if List.mem name emit then [ (name, at [ name ], J.to_string (J.Str s)) ] else []
      in
      text "code" (C.spatial_code c)
      @ text "cin" (Fmt.str "%a" Cin.pp (S.stmt c.C.schedule))
      @ usage_fields (Resources.count config.Sim.arch c)
  | "stats" ->
      let tensor name k result =
        match field [ "tensors" ] result with
        | Some (J.Arr l) -> (
            match List.find_opt (fun o -> J.member "name" o = Some (J.Str name)) l with
            | Some o -> at [ k ] o
            | None -> "<missing>")
        | _ -> "<missing>"
      in
      ( "tensors",
        (fun result ->
          match field [ "tensors" ] result with
          | Some (J.Arr l) -> string_of_int (List.length l)
          | _ -> "<missing>"),
        string_of_int (List.length inputs) )
      :: List.concat_map
           (fun (name, t) ->
             [
               (name ^ ".nnz", tensor name "nnz", num (float_of_int (T.nnz t)));
               ( name ^ ".dims",
                 tensor name "dims",
                 J.to_string
                   (J.Arr
                      (List.map (fun d -> J.Num (float_of_int d)) (Array.to_list (T.dims t))))
               );
               ( name ^ ".fingerprint",
                 tensor name "fingerprint",
                 J.to_string (J.Str (Stats_cache.fingerprint t)) );
             ])
           inputs
  | "autotune" ->
      let problem =
        Eval.problem_of_string ~name:r.Gen.kernel ~config ~formats:st.K.formats ~inputs
          st.K.expr
      in
      let mine =
        J.parse (Explore.to_json (Explore.run ~workers:1 ~strategy:Explore.Halving problem))
      in
      List.map
        (fun k -> (k, at [ k ], at [ k ] mine))
        [ "best"; "frontier"; "full_evals"; "bound_evals" ]
  | op -> failwith ("unknown op " ^ op)

(** Check every sampled answer against its recomputation; one operation
    per compared field. *)
let verify (res : Result.t) samples =
  let memo = Hashtbl.create 64 in
  Checks.uncached (fun () ->
      List.iter
        (fun (r, result) ->
          let expected =
            match Hashtbl.find_opt memo (Gen.key r) with
            | Some e -> e
            | None ->
                let e = try Ok (recompute r) with e -> Error (Printexc.to_string e) in
                Hashtbl.replace memo (Gen.key r) e;
                e
          in
          match expected with
          | Error m -> Result.op res false "recompute %s: %s" (Gen.key r) m
          | Ok fields ->
              List.iter
                (fun (name, read, want) ->
                  let got = read result in
                  Result.op res (got = want) "recompute %s %s: daemon %s, in-process %s"
                    (Gen.key r) name got want)
                fields)
        samples)

(* ------------------------------------------------------------------ *)
(* The untimed set-up and the measured run                             *)
(* ------------------------------------------------------------------ *)

let stream cfg =
  if cfg.hot then Gen.hot_stream ~seed:cfg.seed else Gen.cold_stream ~seed:cfg.seed

(** The warm-up lines: every hot key once, or the first 24 lines of the
    cold stream (whose keys the measured phases then never repeat). *)
let warmup_lines cfg next_line =
  if cfg.hot then Array.to_list (Array.map (fun r -> Gen.Single r) Gen.hot_keys)
  else List.init 24 (fun _ -> next_line ())

let rpc_checked res sampler c ~id line =
  let json, items = line_json ~first_id:id line in
  check_answer res sampler items (J.parse (Client.rpc_line c (J.to_string json)))

(** One set-up: spawn, first pong, then the warm-up pass on one
    connection.  Returns the daemon, its control connection and the
    seconds it took. *)
let setup cfg res sampler warm k =
  let t0 = now () in
  let d = spawn cfg k in
  let c = wait_ready d in
  List.iteri
    (fun i line -> rpc_checked res sampler c ~id:((1_000_000 * (k + 1)) + (8 * i)) line)
    warm;
  (d, c, now () -. t0)

let run cfg (res : Result.t) =
  pin_self ();
  let next_line = stream cfg in
  let warm = warmup_lines cfg next_line in
  let sampler = { pick = Gen.stream cfg.seed 7; samples = [] } in
  let setups =
    List.init 3 (fun k ->
        let d, c, dt = setup cfg res sampler warm k in
        if k < 2 then stop d c;
        (d, c, dt))
  in
  let d, c, _ = List.nth setups 2 in
  let setup_s = Stats.median_list (List.map (fun (_, _, dt) -> dt) setups) in
  let l = connect_load d.sock res sampler in
  let schedule =
    Gen.arrivals ~seed:cfg.seed ~rate:cfg.rate ~duration:(open_share *. cfg.seconds)
  in
  let lat, late = open_loop l ~schedule ~next_line in
  (* read after the open loop, whose request count is fixed: the
     saturation phase serves as many requests as the daemon's speed
     allows, and the peak grows with that count *)
  let rss = Option.value ~default:0.0 (Stats.vmhwm_mb d.pid) in
  let sat = closed_loop l ~duration:((1.0 -. open_share) *. cfg.seconds) ~next_line in
  close_load l;
  let counters = Client.rpc c (J.Obj [ ("op", J.Str "metrics") ]) in
  stop d c;
  Printf.printf "open loop: p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms\n"
    (1000.0 *. Stats.percentile lat 50.0) (1000.0 *. Stats.percentile lat 90.0)
    (1000.0 *. Stats.percentile lat 95.0) (1000.0 *. Stats.percentile lat 99.0);
  Printf.printf "open loop: %d requests at %.0f/s, generator late p99 %.3f ms; plan cache %s\n"
    (Array.length lat) cfg.rate
    (1000.0 *. Stats.percentile late 99.0)
    (at [ "result"; "plan_cache" ] counters);
  verify res sampler.samples;
  Checks.functional res (Gen.small_problems ~seed:cfg.seed);
  Result.metric res "setup_s" "s" setup_s;
  Result.metric res "latency_ms" "ms" (1000.0 *. Stats.percentile lat 50.0);
  Result.metric res "tail_ms" "ms" (1000.0 *. Stats.percentile lat 90.0);
  Result.metric res "throughput_per_s" "1/s" sat;
  Result.metric res "peak_rss_mb" "MB" rss

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

(** Service.dispatch's path for one request, rebuilt from the public
    functions it calls, with a span around each layer.  Returns the
    response body and whether the plan cache answered. *)
let replay_item svc cache (j : J.t) =
  let r =
    match Spans.span "protocol.decode" (fun () -> P.request_of_json j) with
    | Ok r -> r
    | Error _ -> failwith "request does not decode"
  in
  let rs =
    match Spans.span "workload.resolve" (fun () -> Service.resolve_spec r) with
    | Ok rs -> rs
    | Error _ -> failwith "request does not resolve"
  in
  let config = Service.config_of_request r in
  let opts =
    match r.P.op with
    | P.Compile -> String.concat "," r.P.emit
    | P.Autotune -> Fmt.str "%s/%d/%d/%d" r.P.strategy r.P.samples r.P.seed r.P.budget
    | _ -> ""
  in
  let key = Spans.span "service.request_key" (fun () -> Service.request_key ~opts r rs config) in
  let compiled () =
    match rs.Service.rstage with
    | Some (spec, st) -> Checks.compile_kernel_traced spec st ~inputs:rs.Service.rinputs
    | None -> failwith "expression requests are not generated"
  in
  let usage c = Spans.span "resources.count" (fun () -> Resources.count config.Sim.arch c) in
  let compute () =
    match r.P.op with
    | P.Estimate ->
        let c = compiled () in
        let report = Spans.span "sim.estimate" (fun () -> Sim.estimate ~config c) in
        P.ok_body
          (J.Obj
             [
               ("report", Service.report_json report);
               ("resources", Service.usage_json (usage c));
             ])
    | P.Compile ->
        let c = compiled () in
        let section name mk = if List.mem name r.P.emit then [ (name, mk ()) ] else [] in
        P.ok_body
          (J.Obj
             (section "cin" (fun () ->
                  Spans.span "codegen.emit" (fun () ->
                      J.Str (Fmt.str "%a" Cin.pp (S.stmt c.C.schedule))))
             @ section "code" (fun () ->
                   Spans.span "codegen.emit" (fun () -> J.Str (C.spatial_code c)))
             @ section "resources" (fun () -> Service.usage_json (usage c))))
    | P.Stats -> Spans.span "stats.fingerprint" (fun () -> Service.handle_stats rs)
    | P.Autotune -> (
        match W.strategy_of_string ~samples:r.P.samples ~seed:r.P.seed r.P.strategy with
        | Ok strategy ->
            Spans.span "explore.run" (fun () -> Service.handle_autotune svc ~strategy r rs config)
        | Error m -> failwith m)
    | _ -> failwith "op is not generated"
  in
  let body, hit =
    Spans.span "plan_cache.lookup" (fun () -> Plan_cache.find_or_compute cache key compute)
  in
  ignore
    (Spans.span "json.encode" (fun () ->
         J.to_string (P.envelope ~id:r.P.id ~op:(P.op_name r.P.op) ~cached:hit body)));
  body

(** One replay pass over [lines] from cold caches; returns each line's
    item bodies, the pass's wall time and its plan cache. *)
let replay_pass svc lines =
  Stats_cache.reset ();
  let cache = Plan_cache.create () in
  let t0 = now () in
  let bodies =
    List.mapi
      (fun i s ->
        Spans.root ~id:i "request" (fun () ->
            match Spans.span "json.parse" (fun () -> J.parse s) with
            | J.Arr items -> List.map (replay_item svc cache) items
            | j -> [ replay_item svc cache j ]))
      lines
  in
  (bodies, now () -. t0, cache)

let trace cfg (res : Result.t) =
  pin_self ();
  let next_line = stream cfg in
  let warm = warmup_lines cfg next_line in
  let lines = warm @ List.init cfg.trace_lines (fun _ -> next_line ()) in
  let lines =
    List.mapi
      (fun i line -> (line, J.to_string (fst (line_json ~first_id:((8 * i) + 1) line))))
      lines
  in
  let strs = List.map snd lines in
  (* transport: each line's round trip over one socket connection less
     Server.handle_line on the same line in-process, which is the
     daemon's per-line work without the socket and the connection loop *)
  let d = spawn cfg 0 in
  let c = wait_ready d in
  let svc = Service.create ~workers:2 () in
  let sampler = { pick = Gen.stream cfg.seed 7; samples = [] } in
  let timed =
    List.mapi
      (fun i (line, s) ->
        let t0 = now () in
        let resp = J.parse (Client.rpc_line c s) in
        let t1 = now () in
        ignore (Server.handle_line svc s);
        let t2 = now () in
        check_answer res sampler (snd (line_json ~first_id:((8 * i) + 1) line)) resp;
        ((match resp with J.Arr l -> l | o -> [ o ]), t1 -. t0, t1 -. t0 -. (t2 -. t1)))
      lines
  in
  stop d c;
  let daemon_answers = List.map (fun (a, _, _) -> a) timed in
  let rtt = Stats.median_list (List.map (fun (_, r, _) -> r) timed)
  and transport = Stats.median_list (List.map (fun (_, _, t) -> t) timed) in
  Printf.printf "round trip p50 %.1f us, of which transport p50 %.1f us\n" (1e6 *. rtt)
    (1e6 *. transport);
  (* untraced passes before and after the traced one, so neither side
     gets the warmer process *)
  let _, before, _ = replay_pass svc strs in
  let mark = Layers.gc_mark () in
  Spans.on := true;
  let bodies, _, cache = replay_pass svc strs in
  Spans.on := false;
  let gc = Layers.gc_since mark ~ops:(List.length strs) in
  let stats = Layers.stats_count () in
  let _, after, _ = replay_pass svc strs in
  Service.shutdown svc;
  (* the replay must answer exactly what the daemon answered *)
  List.iter2
    (fun mine theirs ->
      List.iter2
        (fun body answer ->
          let a = at [ "result" ] body and b = at [ "result" ] answer in
          Result.op res (a = b) "traced replay differs from the daemon: %s vs %s" a b)
        mine theirs)
    bodies daemon_answers;
  let bodies = List.concat bodies in
  let sum path =
    List.fold_left
      (fun acc b -> match field path b with Some (J.Num f) -> acc +. f | _ -> acc)
      0.0 bodies
  in
  let cycles =
    List.filter_map
      (fun b ->
        match field [ "result"; "report"; "cycles" ] b with Some (J.Num f) -> Some f | _ -> None)
      bodies
  in
  let pc = Plan_cache.counters cache in
  Layers.emit res ~untraced_s:((before +. after) /. 2.0)
    (Layers.stats_values stats
    @ [
       ("plan_cache.hits", float_of_int pc.Plan_cache.hits);
       ("plan_cache.misses", float_of_int pc.Plan_cache.misses);
       ("plan_cache.evictions", float_of_int pc.Plan_cache.evictions);
       ("server.transport.share", 100.0 *. transport /. rtt);
       ("explore.full_evals", sum [ "result"; "full_evals" ]);
       ("explore.estimates", sum [ "result"; "estimates" ]);
       ("explore.bound_evals", sum [ "result"; "bound_evals" ]);
       ("sim.cycles_geomean", Stats.geomean cycles);
     ]
    @ gc)
