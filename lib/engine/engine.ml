(** The unified evaluation runtime (documented in engine.mli): the
    invocation driver every strategy's batch loop runs on, and the one
    report, whose counters are declared once, in the counter table. *)

module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Doc = Axml_doc
module Registry = Axml_services.Registry
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Exec = Axml_exec.Exec
module Project = Axml_project.Project

let log_src = Logs.Src.create "axml.engine" ~doc:"unified evaluation engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* The one report *)

(* The single evaluation report; the field docs are in engine.mli. *)
type report = {
  answers : Eval.binding list;
  invoked : int;
  pushed : int;
  rounds : int;
  passes : int;
  relevance_evals : int;
  candidates_checked : int;
  layer_count : int;
  simulated_seconds : float;
  analysis_seconds : float;
  bytes_transferred : int;
  retries : int;
  timeouts : int;
  failed_calls : int;
  backoff_seconds : float;
  full_nodes : int;
  projected_nodes : int;
  projected_bytes_saved : int;
  sharded_calls : int;
  rebalanced_calls : int;
  rerouted_calls : int;
  view_rebuild_nodes : int;
  parallel_match_batches : int;
  complete : bool;
}

(* ------------------------------------------------------------------ *)
(* The counter table *)

(* A [Counter] metric is bumped with its report field by [count]; a
   [Gauge] is set once, by [finish], from the report. *)
type kind = Counter | Gauge

(* A report field as its row reads it back, for the JSON and the metric *)
type value = Int of int | Float of float | Bool of bool | Bindings of Eval.binding list

type counter = { slot : int; key : string; metric : string; kind : kind; read : report -> value }

let slots = ref 0

let row key metric kind read =
  incr slots;
  { slot = !slots - 1; key; metric; kind; read }

(* One row per report field, in report and JSON order: every JSON key,
   [eval.*] metric name and metric kind is declared here and nowhere else. *)
let answers = row "answers" "eval.answers" Gauge (fun r -> Bindings r.answers)
let invoked = row "invoked" "eval.invoked" Counter (fun r -> Int r.invoked)
let pushed = row "pushed" "eval.pushed" Counter (fun r -> Int r.pushed)
let rounds = row "rounds" "eval.rounds" Counter (fun r -> Int r.rounds)
let passes = row "passes" "eval.passes" Counter (fun r -> Int r.passes)
let relevance_evals =
  row "relevance_evals" "eval.relevance_evals" Counter (fun r -> Int r.relevance_evals)
let candidates_checked =
  row "candidates_checked" "eval.candidates_checked" Counter (fun r -> Int r.candidates_checked)
let layer_count = row "layer_count" "eval.layer_count" Gauge (fun r -> Int r.layer_count)
let simulated_seconds =
  row "simulated_seconds" "eval.simulated_seconds" Gauge (fun r -> Float r.simulated_seconds)
let analysis_seconds =
  row "analysis_seconds" "eval.analysis_seconds" Gauge (fun r -> Float r.analysis_seconds)
let bytes_transferred =
  row "bytes_transferred" "eval.bytes" Counter (fun r -> Int r.bytes_transferred)
let retries = row "retries" "eval.retries" Counter (fun r -> Int r.retries)
let timeouts = row "timeouts" "eval.timeouts" Counter (fun r -> Int r.timeouts)
let failed_calls = row "failed_calls" "eval.failed_calls" Counter (fun r -> Int r.failed_calls)
let backoff_seconds =
  row "backoff_seconds" "eval.backoff_seconds" Counter (fun r -> Float r.backoff_seconds)
let full_nodes = row "full_nodes" "eval.full_nodes" Gauge (fun r -> Int r.full_nodes)
let projected_nodes =
  row "projected_nodes" "eval.projected_nodes" Gauge (fun r -> Int r.projected_nodes)
let projected_bytes_saved =
  row "projected_bytes_saved" "eval.projected_bytes_saved" Gauge (fun r ->
      Int r.projected_bytes_saved)
let sharded_calls =
  row "sharded_calls" "eval.sharded_calls" Counter (fun r -> Int r.sharded_calls)
let rebalanced_calls =
  row "rebalanced_calls" "eval.rebalanced_calls" Counter (fun r -> Int r.rebalanced_calls)
let rerouted_calls =
  row "rerouted_calls" "eval.rerouted_calls" Counter (fun r -> Int r.rerouted_calls)
let view_rebuild_nodes =
  row "view_rebuild_nodes" "eval.view_rebuild_nodes" Gauge (fun r -> Int r.view_rebuild_nodes)
let parallel_match_batches =
  row "parallel_match_batches" "eval.parallel_match_batches" Gauge (fun r ->
      Int r.parallel_match_batches)
let complete = row "complete" "eval.complete" Gauge (fun r -> Bool r.complete)

let table =
  [
    answers; invoked; pushed; rounds; passes; relevance_evals; candidates_checked;
    layer_count; simulated_seconds; analysis_seconds; bytes_transferred; retries; timeouts;
    failed_calls; backoff_seconds; full_nodes; projected_nodes; projected_bytes_saved;
    sharded_calls; rebalanced_calls; rerouted_calls; view_rebuild_nodes;
    parallel_match_batches; complete;
  ]

let metric c = c.metric
let kind c = c.kind

let number = function
  | Int n -> float_of_int n
  | Float x -> x
  | Bool b -> if b then 1.0 else 0.0
  | Bindings bs -> float_of_int (List.length bs)

let report_to_json (r : report) : Axml_obs.Json.t =
  let module J = Axml_obs.Json in
  let binding (b : Eval.binding) =
    J.Obj
      [
        ("vars", J.Obj (List.map (fun (x, v) -> (x, J.String v)) b.Eval.vars));
        ( "results",
          J.List
            (List.map
               (fun (_, n) -> J.String (Axml_xml.Print.to_string (Doc.node_to_xml n)))
               b.Eval.results) );
      ]
  in
  let json = function
    | Int n -> J.Int n
    | Float x -> J.Float x
    | Bool b -> J.Bool b
    | Bindings bs -> J.List (List.map binding bs)
  in
  J.Obj (List.map (fun c -> (c.key, json (c.read r))) table)

(* Both sides are fed by the same bumps in the same order: exact. *)
let reconcile (obs : Obs.t) (r : report) =
  List.filter_map
    (fun c ->
      let want = number (c.read r) and got = Metrics.value obs.Obs.metrics c.metric in
      if want = got then None else Some (c.metric, want, got))
    table

(* ------------------------------------------------------------------ *)
(* Call helpers *)

let call_params (call : Doc.node) = List.map Doc.node_to_xml call.Doc.children

let call_name_exn (call : Doc.node) =
  match call.Doc.label with
  | Doc.Call { fname; _ } -> fname
  | Doc.Elem _ | Doc.Data _ -> invalid_arg "not a function node"

(* ------------------------------------------------------------------ *)
(* Routing *)

(* Where a call actually went. The default (registry-direct) dispatch
   reports [no_route]; a scheduler reports the shard it picked, whether
   the balancer moved the call off the first eligible shard, and how
   many failed replica attempts were salvaged by re-routing before the
   result came back. Only successful dispatches carry a route — a call
   that permanently fails has no placement to report. *)
type route = { shard : string option; rebalanced : bool; rerouted : int }

let no_route = { shard = None; rebalanced = false; rerouted = 0 }

type dispatch =
  name:string ->
  params:Axml_xml.Tree.forest ->
  ?push:P.node ->
  obs:Obs.t ->
  unit ->
  Axml_xml.Tree.forest * Registry.invocation * route

(* ------------------------------------------------------------------ *)
(* The invocation driver *)

type t = {
  registry : Registry.t;
  dispatch : dispatch;
  doc : Doc.t;
  obs : Obs.t;
  pool : Exec.pool option;
  max_calls : int;
  (* calls whose retry budget was exhausted: left in place as unexpanded
     function nodes, never re-attempted *)
  failed : (int, unit) Hashtbl.t;
  projector : Project.t option;
  (* [Doc.view_indexed_total] right after [create] built the initial
     snapshot: [finish] differences against it so the report counts only
     the view work done during the run *)
  view_baseline : int;
  mutable on_replace : invoked:Doc.node -> added:Doc.node list -> unit;
  (* one accumulator per table row, indexed by its slot *)
  acc : float array;
  mutable budget_hit : bool;
}

(* The one statement that bumps a report counter: the accumulator, and
   for a [Counter] row its metric, in the same step. The [enabled] guard
   keeps a bump allocation-free when nobody is measuring. *)
let count t c n =
  t.acc.(c.slot) <- t.acc.(c.slot) +. float_of_int n;
  match c.kind with
  | Counter when Metrics.enabled t.obs.Obs.metrics ->
    Metrics.incr t.obs.Obs.metrics ~by:n c.metric
  | Counter | Gauge -> ()

let count_seconds t c x =
  t.acc.(c.slot) <- t.acc.(c.slot) +. x;
  match c.kind with Counter -> Metrics.add t.obs.Obs.metrics c.metric x | Gauge -> ()

let current t c = int_of_float t.acc.(c.slot)

let count_projection t (st : Project.stats) =
  count t full_nodes st.Project.full_nodes;
  count t projected_nodes st.Project.kept_nodes;
  count t projected_bytes_saved st.Project.bytes_saved

type accounting = Max | Sum

let registry_dispatch registry : dispatch =
 fun ~name ~params ?push ~obs () ->
  let result, inv = Registry.invoke registry ~name ~params ?push ~obs () in
  (result, inv, no_route)

let create ?(max_calls = 100_000) ?pool ?(obs = Obs.null) ?projector ?dispatch registry
    (doc : Doc.t) =
  (* Layer 1: project the initial document before any strategy sees it. *)
  let projection = Option.map (fun p -> Project.doc p doc) projector in
  (* Index the (projected) document once up front: strategies hit this
     cached snapshot, and every splice from here on patches it
     incrementally instead of forcing full rebuilds. *)
  ignore (Doc.View.snapshot doc);
  let t =
    {
      registry;
      dispatch = (match dispatch with Some d -> d | None -> registry_dispatch registry);
      doc;
      obs;
      pool;
      max_calls;
      failed = Hashtbl.create 8;
      projector;
      view_baseline = Doc.view_indexed_total doc;
      on_replace = (fun ~invoked:_ ~added:_ -> ());
      acc = Array.make !slots 0.0;
      budget_hit = false;
    }
  in
  Option.iter (count_projection t) projection;
  t

let on_replace t f = t.on_replace <- f
let permanently_failed t id = Hashtbl.mem t.failed id

let account t (inv : Registry.invocation) =
  count t retries inv.Registry.retries;
  count t timeouts inv.Registry.timeouts;
  count_seconds t backoff_seconds inv.Registry.backoff_seconds;
  count t bytes_transferred (inv.Registry.request_bytes + inv.Registry.response_bytes)

(* One invocation is split in two halves. [request] is the worker-safe
   half: just the registry exchange (thread-safe, only reads the
   document), with failures captured as data. [apply] is the sequential
   half: document mutation, the strategy's [on_replace] hook and every
   counter — always run on the coordinating thread, in batch input
   order, so neither the engine nor the strategy state needs locks. *)

type outcome =
  | O_ok of Axml_xml.Tree.forest * Registry.invocation * route
  | O_failed of Registry.invocation

let request t ~obs ?push (call : Doc.node) =
  match t.dispatch ~name:(call_name_exn call) ~params:(call_params call) ?push ~obs () with
  | result, inv, route -> O_ok (result, inv, route)
  | exception Registry.Service_failure inv -> O_failed inv

let apply t ?push (call : Doc.node) outcome =
  let name = call_name_exn call in
  match outcome with
  | O_ok (result, inv, route) ->
    Log.debug (fun m ->
        m "invoke [%d]%s%s%s"
          (match call.Doc.label with Doc.Call { call_id; _ } -> call_id | _ -> -1)
          name
          (if push = None then "" else " (pushed)")
          (match route.shard with None -> "" | Some s -> " @" ^ s));
    (* Layer 2: project the freshly materialized result {e before} it is
       spliced, so F-guides and function scans only ever observe the
       projected document — and so the splice is the only mutation,
       keeping the incremental snapshot-view patch valid (post-splice
       pruning would invalidate it and force full O(n) rebuilds). *)
    let result =
      match (t.projector, call.Doc.parent) with
      | Some p, Some parent ->
        let kept, st = Project.spliced_forest p ~parent result in
        count_projection t st;
        kept
      | _ -> result
    in
    let added = Doc.replace_call t.doc call result in
    t.on_replace ~invoked:call ~added;
    count t invoked 1;
    if inv.Registry.pushed then count t pushed 1;
    if route.shard <> None then count t sharded_calls 1;
    if route.rebalanced then count t rebalanced_calls 1;
    if route.rerouted > 0 then count t rerouted_calls route.rerouted;
    account t inv;
    inv.Registry.cost
  | O_failed inv ->
    (* Graceful degradation: the call stays in place as an unexpanded
       function node; the answer may only lose bindings (Def. 4). *)
    Log.debug (fun m ->
        m "invoke [%d]%s permanently failed (%d retries, %d timeouts)"
          (match call.Doc.label with Doc.Call { call_id; _ } -> call_id | _ -> -1)
          name inv.Registry.retries inv.Registry.timeouts);
    Hashtbl.replace t.failed call.Doc.id ();
    count t failed_calls 1;
    account t inv;
    inv.Registry.cost

(* A batch of calls. With a pool and [Max] accounting (a §4.4 parallel
   batch), the members' registry exchanges run concurrently — condition
   ★ guarantees no member's parameters depend on another member's
   result, so requesting against the pre-batch document is exactly what
   the sequential order does too — and the apply phase then runs
   sequentially in input order, which keeps answers, counters and
   traces identical to the sequential path. The pool is only used when
   the whole batch fits in the remaining call budget, so the budget
   cuts at the same call at every jobs level. A call reached with the
   budget exhausted is skipped and marks [budget_hit]. *)
let invoke_batch t ?push ~accounting calls =
  let combine worst cost =
    match accounting with Max -> Float.max worst cost | Sum -> worst +. cost
  in
  let pooled =
    match (t.pool, accounting) with
    | Some pool, Max
      when Exec.jobs pool > 1
           && List.length calls > 1
           && current t invoked + List.length calls <= t.max_calls ->
      Some pool
    | _ -> None
  in
  match pooled with
  | None ->
    List.fold_left
      (fun worst call ->
        if current t invoked >= t.max_calls then begin
          t.budget_hit <- true;
          worst
        end
        else combine worst (apply t ?push call (request t ~obs:t.obs ?push call)))
      0.0 calls
  | Some pool ->
    let outcomes =
      Exec.map_batch pool
        (fun call ->
          let obs = Obs.fork t.obs in
          (obs, request t ~obs ?push call))
        calls
    in
    List.fold_left2
      (fun worst call (obs, outcome) ->
        Obs.join t.obs obs;
        combine worst (apply t ?push call outcome))
      0.0 calls outcomes

let round ?(attrs = []) ?push ~accounting t calls =
  count t rounds 1;
  let tr = t.obs.Obs.trace in
  let span =
    if Trace.enabled tr then Trace.open_span tr ~attrs "eval.round" else Trace.none
  in
  let batch_cost = invoke_batch t ?push ~accounting calls in
  if Trace.enabled tr then
    Trace.close_span tr ~attrs:[ ("batch_cost_s", Trace.Float batch_cost) ] span;
  count_seconds t simulated_seconds batch_cost;
  batch_cost

(* ------------------------------------------------------------------ *)
(* Finishing: final gauges, the root span, the report *)

(* [swept]: the strategy sweeps layers, so the root span reports its
   passes; naive materialization never sweeps and leaves them out. *)
let close ~swept t ~root ~answers ~budget_ok =
  count t view_rebuild_nodes (Doc.view_indexed_total t.doc - t.view_baseline);
  let n c = current t c and x c = t.acc.(c.slot) in
  let report =
    {
      answers;
      invoked = n invoked; pushed = n pushed; rounds = n rounds; passes = n passes;
      relevance_evals = n relevance_evals; candidates_checked = n candidates_checked;
      layer_count = n layer_count; simulated_seconds = x simulated_seconds;
      analysis_seconds = x analysis_seconds; bytes_transferred = n bytes_transferred;
      retries = n retries; timeouts = n timeouts; failed_calls = n failed_calls;
      backoff_seconds = x backoff_seconds; full_nodes = n full_nodes;
      projected_nodes = n projected_nodes; projected_bytes_saved = n projected_bytes_saved;
      sharded_calls = n sharded_calls; rebalanced_calls = n rebalanced_calls;
      rerouted_calls = n rerouted_calls; view_rebuild_nodes = n view_rebuild_nodes;
      parallel_match_batches = n parallel_match_batches;
      complete = budget_ok && Hashtbl.length t.failed = 0;
    }
  in
  if Obs.enabled t.obs then begin
    List.iter
      (fun c ->
        if c.kind = Gauge then Metrics.set t.obs.Obs.metrics c.metric (number (c.read report)))
      table;
    let attr c = (c.key, Trace.Int (n c)) in
    Trace.close_span t.obs.Obs.trace
      ~attrs:
        ([ attr invoked; attr rounds ]
        @ (if swept then [ attr passes ] else [])
        @ [
            ("bytes", Trace.Int report.bytes_transferred);
            ("simulated_s", Trace.Float report.simulated_seconds);
            (complete.key, Trace.Bool report.complete);
          ])
      root
  end;
  report

let finish = close ~swept:true

(* ------------------------------------------------------------------ *)
(* The naive strategy (§1): every visible call is relevant, one round
   per fixpoint iteration, until no visible call remains (or the
   budget cuts). A degenerate client of the driver above. *)

let naive_run ?max_calls ?(parallel = true) ?pool ?(obs = Obs.null) ?projector ?dispatch
    registry (q : P.t) (d : Doc.t) : report =
  let tr = obs.Obs.trace in
  let root = if Trace.enabled tr then Trace.open_span tr "eval.naive" else Trace.none in
  let t = create ?max_calls ?pool ~obs ?projector ?dispatch registry d in
  let continue = ref true in
  while !continue do
    let calls =
      List.filter
        (fun (c : Doc.node) -> not (permanently_failed t c.Doc.id))
        (Doc.visible_function_nodes d)
    in
    if calls = [] then continue := false
    else begin
      ignore
        (round t
           ~accounting:(if parallel then Max else Sum)
           ~attrs:
             [ ("calls", Trace.Int (List.length calls)); ("parallel", Trace.Bool parallel) ]
           calls);
      if t.budget_hit then continue := false
    end
  done;
  let answers = Eval.eval q d in
  close ~swept:false t ~root ~answers ~budget_ok:(not t.budget_hit)
