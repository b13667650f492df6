(** Pieces shared by the workloads: the compile pipeline split into
    traced stages, and the independent functional check. *)

module K = Stardust_core.Kernels
module C = Stardust_core.Compile
module Plan = Stardust_core.Plan
module Lower = Stardust_core.Lower
module Spatial_ir = Stardust_spatial.Spatial_ir
module Sim = Stardust_capstan.Sim
module Parser = Stardust_ir.Parser
module Reference = Stardust_vonneumann.Reference
module Differ = Stardust_oracle.Differ
module Stats_cache = Stardust_tensor.Stats_cache
module W = Stardust_serve.Workload

(** {!C.compile_result}'s pipeline with a span around each stage, so a
    traced replay splits compile time by stage.  Raises where
    {!C.compile_result} would return diagnostics. *)
let compile_traced ?sram_budget ~name sched ~inputs : C.compiled =
  let plan =
    Spans.span "compile.plan" (fun () -> Plan.build ?sram_budget sched ~inputs)
  in
  let program = Spans.span "compile.lower" (fun () -> Lower.lower ~name plan) in
  match Spans.span "compile.validate" (fun () -> Spatial_ir.validate program) with
  | [] -> { C.name; schedule = sched; plan; program; inputs }
  | e :: _ -> failwith ("invalid Spatial program: " ^ e)

let compile_kernel_traced (spec : K.spec) (st : K.stage) ~inputs =
  let sched = Spans.span "compile.schedule" (fun () -> K.schedule_stage spec st) in
  compile_traced ~name:(String.lowercase_ascii spec.K.kname) sched ~inputs

(** Run [f] with the dataset-statistics cache off, so a recomputation
    shares no cached state with the computation it checks. *)
let uncached f =
  Stats_cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Stats_cache.set_enabled true) f

(** The independent check: on small problems, the Capstan functional
    simulator's result must equal the dense reference evaluator's within
    the oracle's default tolerances.  One operation per problem. *)
let functional (res : Result.t) kernels =
  List.iter
    (fun (kname, n) ->
      match K.find kname with
      | None -> Result.op res false "functional %s: unknown kernel" kname
      | Some spec ->
          let st = List.hd spec.K.stages in
          let verdict =
            match
              let inputs = W.stage_random_inputs st n in
              let compiled = K.compile_stage spec st ~inputs in
              let results, _ = Sim.execute compiled in
              let expected =
                Reference.eval (Parser.parse_assign st.K.expr) ~inputs
                  ~result_format:st.K.result_format
              in
              Differ.compare_result ~expected (List.assoc st.K.result results)
            with
            | v -> v
            | exception e -> Differ.Crash (Printexc.to_string e)
          in
          Result.op res (verdict = Differ.Pass) "functional %s n=%d: %s" kname n
            (Differ.verdict_to_string verdict))
    kernels
