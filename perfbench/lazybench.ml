(* The lazy-AXML evaluator benchmark: one named workload per run, timed
   with tracing off (end-to-end metrics) or split into an untraced and a
   traced half (per-layer metrics). Usage:

     lazybench.exe --workload city|scan|splice|serve --seed N
                   --seconds S --trace 0|1

   Every input is generated from --seed; generation, reference answers,
   server start and request-log recording are set-up, never inside an
   op's time. Every op is checked against an oracle computed at set-up.
   The last line of standard output is one JSON object with the keys
   correct / attempted / failed / metrics; the exit code is non-zero
   when any op failed or answered wrongly. The program is driven only
   through its public entry points: Axml_doc.parse, Project.compile,
   Lazy_eval.run / Engine.naive_run (with ?obs and ?dispatch),
   Eval.bindings_to_xml + Print, Server.create / Client.call. GC
   settings are the runtime defaults. *)

module Doc = Axml_doc
module Tree = Axml_xml.Tree
module Print = Axml_xml.Print
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Schema = Axml_schema.Schema
module Registry = Axml_services.Registry
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module Project = Axml_project.Project
module City = Axml_workload.City
module Adversary = Axml_workload.Adversary
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Json = Axml_obs.Json
module Server = Axml_net.Server
module Client = Axml_net.Client

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 0.5

(* Words allocated since program start. *)
let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0

let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb

(* ------------------------------------------------------------------ *)
(* Span accounting over a recorded trace: per span name, the summed
   duration, the summed self time (duration minus what its direct
   children cover; spans of one thread never overlap, so the children's
   durations add up) and the span count. *)

type span_acc = { mutable dur : float; mutable self : float; mutable spans : int }

let span_stats (acc : (string, span_acc) Hashtbl.t) trace =
  let opened = Hashtbl.create 256 in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Open -> Hashtbl.replace opened e.Trace.id (e.Trace.name, e.Trace.wall, e.Trace.parent)
      | Trace.Close -> (
        match Hashtbl.find_opt opened e.Trace.id with
        | None -> ()
        | Some (name, start, parent) ->
          Hashtbl.remove opened e.Trace.id;
          let d = e.Trace.wall -. start in
          let c = Option.value ~default:0.0 (Hashtbl.find_opt covered e.Trace.id) in
          Hashtbl.remove covered e.Trace.id;
          if parent >= 0 then
            Hashtbl.replace covered parent
              (d +. Option.value ~default:0.0 (Hashtbl.find_opt covered parent));
          let a =
            match Hashtbl.find_opt acc name with
            | Some a -> a
            | None ->
              let a = { dur = 0.0; self = 0.0; spans = 0 } in
              Hashtbl.replace acc name a;
              a
          in
          a.dur <- a.dur +. d;
          a.self <- a.self +. (d -. c);
          a.spans <- a.spans + 1)
      | Trace.Instant -> ())
    (Trace.events trace)

let span_get acc name =
  Option.value ~default:{ dur = 0.0; self = 0.0; spans = 0 } (Hashtbl.find_opt acc name)

(* Recorded spans are written out once the run is over, next to the
   build outputs; each workload's file holds its latest traced run, cut
   after [max_written_events] events (a traced serve run records about a
   million). *)
let max_written_events = 100_000

let write_traces ~workload traces =
  let dir = Filename.concat ".bench_build" "traces" in
  (try Unix.mkdir ".bench_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (workload ^ ".jsonl") in
  let left = ref max_written_events in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun tr ->
          if !left > 0 then
            List.iter
              (fun j ->
                if !left > 0 then begin
                  decr left;
                  Json.to_channel oc j;
                  output_char oc '\n'
                end)
              (Trace.to_jsonl tr))
        traces);
  path

(* ------------------------------------------------------------------ *)
(* In-process workloads: city, scan, splice. *)

type instance = {
  text : string;  (** the document as the op receives it *)
  nodes : int;  (** nodes of the parsed input document *)
  registry : Registry.t;
  schema : Schema.t;
  query : P.t;
  expected : string list;  (** reference answer set *)
  calls : int;  (** visible calls in the input document *)
}

(* Pure-data padding: cold items whose keys never match the query, so
   descendant sweeps walk them but no call or answer lives there. *)
let add_ballast doc ~seed ~items =
  let root = Doc.root doc in
  let per_section = 50 in
  let sections = (items + per_section - 1) / per_section in
  for s = 0 to sections - 1 do
    let n = min per_section (items - (s * per_section)) in
    let item i =
      Doc.elem doc "item"
        [
          Doc.elem doc "key" [ Doc.data doc (Printf.sprintf "cold-%d-%d-%d" seed s i) ];
          Doc.elem doc "payload" [ Doc.data doc "ballast" ];
        ]
    in
    Doc.append_child doc root (Doc.elem doc "section" (List.init n item))
  done

(* Each generator builds a fresh copy of one seeded instance: the
   document is rewritten in place by evaluation, so the oracle and the
   op each get their own. *)
type fresh = { f_doc : Doc.t; f_registry : Registry.t; f_schema : Schema.t; f_query : P.t }

let city_config seed =
  {
    City.default_config with
    City.hotels = 300;
    target_fraction = 0.1;
    seed;
  }

let gen_city seed () =
  let c = City.generate (city_config seed) in
  {
    f_doc = c.City.doc;
    f_registry = c.City.registry;
    f_schema = c.City.schema;
    f_query = c.City.query;
  }

let gen_adversary family ~scale ~ballast seed () =
  let a =
    Adversary.generate { Adversary.default_config with Adversary.family; seed; scale }
  in
  add_ballast a.Adversary.doc ~seed ~items:ballast;
  {
    f_doc = a.Adversary.doc;
    f_registry = a.Adversary.registry;
    f_schema = a.Adversary.schema;
    f_query = a.Adversary.query;
  }

(* Adjacent text parameters of a call merge when the document is
   printed (Adversary's spawn calls carry two), so each is wrapped in an
   <arg> element, whose text content the services read unchanged. *)
let rec separate_args (t : Tree.t) =
  match t with
  | Tree.Text _ -> t
  | Tree.Element e ->
    let children = List.map separate_args e.Tree.children in
    let texts = List.filter (function Tree.Text _ -> true | Tree.Element _ -> false) children in
    let children =
      if e.Tree.name = Doc.call_elem_name && List.length texts > 1 then
        List.map (function Tree.Text _ as x -> Tree.element "arg" [ x ] | c -> c) children
      else children
    in
    Tree.Element { e with Tree.children }

(* The answer set of Def. 4: every binding rendered on its own, as a
   sorted set. *)
let answer_set answers =
  List.map (fun b -> Print.forest_to_string (Eval.bindings_to_xml [ b ])) answers
  |> List.sort_uniq compare

(* The reference answers come from a naive run on a fresh copy: the same
   text parsed again, against a freshly generated registry. *)
let make_instance gen =
  let f = gen () in
  let text = Print.to_string (separate_args (Doc.to_xml f.f_doc)) in
  let reference = gen () in
  let r = Engine.naive_run reference.f_registry reference.f_query (Doc.parse text) in
  if not r.Engine.complete then failwith "reference run incomplete";
  let expected = answer_set r.Engine.answers in
  if expected = [] then failwith "reference run has no answers";
  let doc = Doc.parse text in
  {
    text;
    nodes = Doc.size doc;
    registry = f.f_registry;
    schema = f.f_schema;
    query = f.f_query;
    expected;
    calls = Doc.count_calls doc;
  }

let sequential s = Lazy_eval.with_match_jobs 1 s

(* Only city is typed: its ops hand the schema to the evaluator (§5
   typing) and compile a projector from it (§5 projection). *)
let typed workload = workload = "city"

(* Instances rotated through by the ops of one run; sub-seeds are drawn
   from the workload seed. *)
let rotation = function "city" -> 8 | _ -> 48

let generator workload seed =
  match workload with
  | "city" -> gen_city seed
  | "scan" -> gen_adversary Adversary.Skewed_fanout ~scale:30 ~ballast:950 seed
  | "splice" -> gen_adversary Adversary.Bounded_recursion ~scale:300 ~ballast:600 seed
  | w -> invalid_arg ("unknown workload " ^ w)

let sub_seed seed i = (seed * 7919) + i

let setup_inprocess workload seed =
  Array.init (rotation workload) (fun i -> make_instance (generator workload (sub_seed seed i)))

(* The services' dispatch, wrapped in a bench span: the time spent in
   the services layer as the engine sees it. *)
let traced_dispatch registry : Engine.dispatch =
 fun ~name ~params ?push ~obs () ->
  Trace.with_span obs.Obs.trace ~cat:"bench" "bench.invoke" (fun () ->
      let forest, inv = Registry.invoke registry ~name ~params ?push ~obs () in
      (forest, inv, Engine.no_route))

type op_result = { report : Engine.report; rendered : string }

(* One op: document text in, rendered answers out. *)
let run_op ?(obs = Obs.null) ~typed inst =
  let tr = obs.Obs.trace in
  let span name f = Trace.with_span tr ~cat:"bench" name f in
  span "bench.op" (fun () ->
      let doc = span "bench.parse" (fun () -> Doc.parse inst.text) in
      let projector =
        if typed then
          Some (span "bench.compile" (fun () -> Project.compile ~schema:inst.schema inst.query))
        else None
      in
      let schema = if typed then Some inst.schema else None in
      let strategy = sequential (if typed then Lazy_eval.nfqa_typed else Lazy_eval.nfqa) in
      let dispatch = if Trace.enabled tr then Some (traced_dispatch inst.registry) else None in
      let report =
        span "bench.eval" (fun () ->
            Lazy_eval.run ~strategy ?schema ~obs ?projector ?dispatch
              ~registry:inst.registry inst.query doc)
      in
      let rendered =
        span "bench.render" (fun () ->
            Print.forest_to_string (Eval.bindings_to_xml report.Engine.answers))
      in
      { report; rendered })

let op_ok inst r =
  r.report.Engine.complete && r.rendered <> "" && answer_set r.report.Engine.answers = inst.expected

(* Per-run accumulators of the in-process loop. *)
type tally = {
  mutable lat : float list;
  mutable ops : int;
  mutable failed : int;
  per_instance : float array array;  (** ops, calls, simulated seconds, bytes *)
  mutable nodes : int;
  mutable reports : Engine.report list;
  mutable traces : Trace.t list;
}

let new_tally insts =
  {
    lat = [];
    ops = 0;
    failed = 0;
    per_instance = Array.map (fun _ -> Array.make 4 0.0) insts;
    nodes = 0;
    reports = [];
    traces = [];
  }

(* Column [k] of the per-instance sums as a per-op mean in which every
   instance weighs the same, however many ops the run happened to give
   it. *)
let balanced t k =
  let seen = List.filter (fun a -> a.(0) > 0.0) (Array.to_list t.per_instance) in
  List.fold_left (fun acc a -> acc +. (a.(k) /. a.(0))) 0.0 seen /. float_of_int (List.length seen)

(* Closed loop on the calling thread for [seconds]: the next op starts
   when the previous one is checked. *)
let inprocess_loop ~traced ~seconds ~typed insts (t : tally) =
  let deadline = now () +. seconds in
  let i = ref 0 in
  while now () < deadline do
    let k = !i mod Array.length insts in
    let inst = insts.(k) in
    incr i;
    let obs = if traced then Obs.tracing () else Obs.null in
    let t0 = now () in
    let outcome = try Ok (run_op ~obs ~typed inst) with e -> Error e in
    let dt = now () -. t0 in
    t.ops <- t.ops + 1;
    t.lat <- dt :: t.lat;
    t.nodes <- t.nodes + inst.nodes;
    (match outcome with
    | Ok r ->
      if not (op_ok inst r) then begin
        Printf.eprintf "op on instance %d: wrong or incomplete answers\n%!" k;
        t.failed <- t.failed + 1
      end;
      let rp = r.report in
      let sums = t.per_instance.(k) in
      sums.(0) <- sums.(0) +. 1.0;
      sums.(1) <- sums.(1) +. float_of_int rp.Engine.invoked;
      sums.(2) <- sums.(2) +. rp.Engine.simulated_seconds;
      sums.(3) <- sums.(3) +. float_of_int rp.Engine.bytes_transferred;
      if traced then begin
        (* the answers would keep the whole evaluated document alive *)
        t.reports <- { rp with Engine.answers = [] } :: t.reports;
        t.traces <- obs.Obs.trace :: t.traces
      end
    | Error e ->
      prerr_endline ("op failed: " ^ Printexc.to_string e);
      t.failed <- t.failed + 1);
    Registry.reset_history inst.registry
  done

(* ------------------------------------------------------------------ *)
(* The serve workload: one in-process server, two closed-loop client
   threads replaying a request log. *)

type request = {
  service : string;
  params : Tree.forest;
  push : P.node option;
  reply : Tree.forest;  (** in-process Registry.invoke of the same request *)
  cost : float;  (** the provider cost model's simulated seconds *)
  tree_nodes : int;  (** request params + reply nodes *)
}

let serve_config seed =
  { City.default_config with City.hotels = 400; target_fraction = 0.1; seed }

let recording registry log : Engine.dispatch =
 fun ~name ~params ?push ~obs () ->
  log := (name, params, push) :: !log;
  let forest, inv = Registry.invoke registry ~name ~params ?push ~obs () in
  (forest, inv, Engine.no_route)

(* The request log: every invocation of a naive run and of a lazy run
   with query pushing on the same instance, recorded through the public
   dispatch hook; each entry's expected reply comes from a separate
   in-process registry. *)
let record_log seed =
  let cfg = serve_config seed in
  let log = ref [] in
  let n = City.generate cfg in
  let naive =
    Engine.naive_run ~dispatch:(recording n.City.registry log) n.City.registry n.City.query
      n.City.doc
  in
  let l = City.generate cfg in
  let lzy =
    Lazy_eval.run
      ~strategy:(sequential (Lazy_eval.with_push Lazy_eval.nfqa_typed))
      ~schema:l.City.schema
      ~dispatch:(recording l.City.registry log)
      ~registry:l.City.registry l.City.query l.City.doc
  in
  if answer_set naive.Engine.answers <> answer_set lzy.Engine.answers then
    failwith "serve: naive and lazy recordings disagree";
  let oracle = City.generate cfg in
  List.rev_map
    (fun (service, params, push) ->
      let reply, inv = Registry.invoke oracle.City.registry ~name:service ~params ?push () in
      {
        service;
        params;
        push;
        reply;
        cost = inv.Registry.cost;
        tree_nodes = Tree.forest_size params + Tree.forest_size reply;
      })
    !log
  |> Array.of_list

type served = { server : Server.t; log : request array; serve_registry : Registry.t }

let workers = Domain.recommended_domain_count ()

let start_server ?(obs = Obs.null) seed =
  let c = City.generate (serve_config seed) in
  let server =
    Server.create ~obs ~schema:c.City.schema ~workers ~registry:c.City.registry ()
  in
  Server.start server;
  (server, c.City.registry)

let setup_serve seed =
  let log = record_log seed in
  let server, serve_registry = start_server seed in
  { server; log; serve_registry }

type client_tally = {
  mutable c_lat : float list;
  mutable c_ops : int;
  mutable c_failed : int;
  mutable c_bytes : int;
  mutable c_nodes : int;
  mutable c_sim : float;
}

let clients = 2

(* Closed loop: each client thread owns one pooled connection and sends
   its next request when the previous reply is checked. *)
let serve_loop ~seconds ~obs_of server log registry =
  let tallies =
    Array.init clients (fun _ ->
        { c_lat = []; c_ops = 0; c_failed = 0; c_bytes = 0; c_nodes = 0; c_sim = 0.0 })
  in
  let obses = Array.init clients obs_of in
  let conns =
    Array.init clients (fun _ ->
        Client.create ~pool_size:1 ~host:(Server.host server) ~port:(Server.port server) ())
  in
  (* dial and handshake before the clock starts *)
  Array.iteri (fun k c -> ignore (Client.services c ~obs:obses.(k) ())) conns;
  let n = Array.length log in
  let deadline = now () +. seconds in
  let body k () =
    let t = tallies.(k) and obs = obses.(k) and conn = conns.(k) in
    let i = ref (k * n / clients) in
    while now () < deadline do
      let r = log.(!i mod n) in
      incr i;
      let t0 = now () in
      let outcome =
        try
          Ok
            (Client.call conn ~obs ~timeout:30.0 ~service:r.service ~params:r.params
               ~push:r.push)
        with e -> Error e
      in
      let dt = now () -. t0 in
      t.c_ops <- t.c_ops + 1;
      t.c_lat <- dt :: t.c_lat;
      t.c_nodes <- t.c_nodes + r.tree_nodes;
      t.c_sim <- t.c_sim +. r.cost;
      (match outcome with
      | Ok (forest, wire) ->
        t.c_bytes <- t.c_bytes + wire.Registry.sent + wire.Registry.received;
        if forest <> r.reply then begin
          Printf.eprintf "request %s: reply differs from the in-process invocation\n%!" r.service;
          t.c_failed <- t.c_failed + 1
        end
      | Error e ->
        prerr_endline ("request failed: " ^ Printexc.to_string e);
        t.c_failed <- t.c_failed + 1);
      (* the served registry's invocation history grows per request;
         keep it from growing over the run *)
      if k = 0 && !i land 1023 = 0 then Registry.reset_history registry
    done
  in
  let t0 = now () in
  let threads = List.init clients (fun k -> Thread.create (body k) ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  Array.iter Client.close conns;
  (tallies, obses, wall)

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; unit_ : string; value : float }

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "  %-26s %16.6g %s\n" m.name m.value m.unit_) metrics;
  let fields =
    List.map
      (fun m ->
        ( m.name,
          Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ] ))
      metrics
  in
  let j =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj fields);
      ]
  in
  print_endline (Json.to_string j)

let m name unit_ value = { name; unit_; value }

let end_to_end ~lat ~ops ~failed ~wall ~calls ~sim ~bytes ~alloc_words ~nodes ~setup =
  let sorted = sorted_of_list lat in
  [
    m "latency_s.p50" "s" (percentile sorted 0.5);
    m "latency_s.p90" "s" (percentile sorted 0.9);
    m "throughput_ops" "ops/s" (float_of_int ops /. wall);
    m "calls_per_op" "calls" calls;
    m "sim_service_s_per_op" "s" sim;
    m "wire_bytes_per_op" "B" bytes;
    m "alloc_words_per_node" "words" (alloc_words /. nodes);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
    m "setup_s" "s" setup;
    m "ok_ratio" "ratio" (float_of_int (ops - failed) /. float_of_int ops);
  ]

(* Set-up runs [setup_repeats] times, one after the other; the median
   time is reported and the last result is used (each earlier one is
   discarded, its server stopped, before the next set-up starts). *)
let setup_repeats = 3

let timed_setup ~discard f =
  let rec go k last times =
    Option.iter discard last;
    let t0 = now () in
    let r = f () in
    let times = (now () -. t0) :: times in
    if k = 1 then (r, median times) else go (k - 1) (Some r) times
  in
  go setup_repeats None []

let per_layer_names =
  [
    ("xml.parse_s", "s");
    ("xml.render_s", "s");
    ("project.compile_s", "s");
    ("project.kept_ratio", "ratio");
    ("doc.view_rebuild_nodes", "nodes");
    ("core.detect_s", "s");
    ("core.analysis_s", "s");
    ("core.relevance_evals", "count");
    ("core.passes", "count");
    ("engine.round_self_s", "s");
    ("engine.rounds", "count");
    ("engine.run_self_share", "ratio");
    ("services.invoke_s", "s");
    ("net.server_s", "s");
    ("net.wait_s", "s");
    ("net.request_bytes", "B");
    ("net.response_bytes", "B");
    ("net.reuse_ratio", "ratio");
    ("runtime.minor_gcs", "count");
    ("runtime.major_gcs", "count");
    ("obs.overhead_ratio", "ratio");
  ]

(* The per-layer table: every name is printed; a layer the workload does
   not exercise reads 0. *)
let per_layer_metrics values =
  List.map
    (fun (name, unit_) -> m name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_names

let gc_per_op (g0 : Gc.stat) (g1 : Gc.stat) ops =
  let per x = float_of_int x /. float_of_int ops in
  [
    ("runtime.minor_gcs", per (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("runtime.major_gcs", per (g1.Gc.major_collections - g0.Gc.major_collections));
  ]

let finish ~attempted ~failed metrics =
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  failed = 0

(* The measured input shape, averaged over the instances: what a later
   change to the generators would move. *)
let describe_inprocess workload (insts : instance array) (runs : (int * int) array) =
  let avg f xs =
    Array.fold_left (fun a x -> a +. float_of_int (f x)) 0.0 xs /. float_of_int (Array.length xs)
  in
  Printf.printf
    "workload %s: %d instances; per instance %.0f nodes, %.1f visible calls, %.1f invoked, %.1f \
     rounds, %.1f answers\n"
    workload (Array.length insts)
    (avg (fun (i : instance) -> i.nodes) insts)
    (avg (fun (i : instance) -> i.calls) insts)
    (avg fst runs) (avg snd runs)
    (avg (fun (i : instance) -> List.length i.expected) insts)

let run_inprocess ~workload ~seed ~seconds ~trace =
  let insts, setup = timed_setup ~discard:ignore (fun () -> setup_inprocess workload seed) in
  let typed = typed workload in
  (* warm-up: one op per instance, not counted; only its shape is kept *)
  describe_inprocess workload insts
    (Array.map
       (fun i ->
         let r = (run_op ~typed i).report in
         (r.Engine.invoked, r.Engine.rounds))
       insts);
  Gc.compact ();
  let plain = new_tally insts in
  let untraced_seconds = if trace then seconds /. 2.0 else seconds in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  inprocess_loop ~traced:false ~seconds:untraced_seconds ~typed insts plain;
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  if not trace then begin
    let metrics =
      end_to_end ~lat:plain.lat ~ops:plain.ops ~failed:plain.failed ~wall ~calls:(balanced plain 1)
        ~sim:(balanced plain 2) ~bytes:(balanced plain 3)
        ~alloc_words:(words g1 -. words g0)
        ~nodes:(float_of_int plain.nodes) ~setup
    in
    Printf.printf "ops %d, failed %d\n" plain.ops plain.failed;
    finish ~attempted:plain.ops ~failed:plain.failed metrics
  end
  else begin
    let traced = new_tally insts in
    inprocess_loop ~traced:true ~seconds:(seconds -. untraced_seconds) ~typed insts traced;
    let acc = Hashtbl.create 32 in
    List.iter (span_stats acc) traced.traces;
    let n = float_of_int traced.ops in
    let per x = x /. n in
    let sum_report f = List.fold_left (fun a r -> a +. f r) 0.0 traced.reports in
    let rep f = per (sum_report f) in
    let full = sum_report (fun r -> float_of_int r.Engine.full_nodes) in
    let run = span_get acc "eval.run" in
    let values =
      [
        ("xml.parse_s", per (span_get acc "bench.parse").dur);
        ("xml.render_s", per (span_get acc "bench.render").dur);
        ("project.compile_s", per (span_get acc "bench.compile").dur);
        ( "project.kept_ratio",
          if full > 0.0 then sum_report (fun r -> float_of_int r.Engine.projected_nodes) /. full
          else 0.0 );
        ("doc.view_rebuild_nodes", rep (fun r -> float_of_int r.Engine.view_rebuild_nodes));
        ("core.detect_s", per (span_get acc "eval.detect").dur);
        ("core.analysis_s", rep (fun r -> r.Engine.analysis_seconds));
        ("core.relevance_evals", rep (fun r -> float_of_int r.Engine.relevance_evals));
        ("core.passes", rep (fun r -> float_of_int r.Engine.passes));
        ("engine.round_self_s", per (span_get acc "eval.round").self);
        ("engine.rounds", rep (fun r -> float_of_int r.Engine.rounds));
        ("engine.run_self_share", if run.dur > 0.0 then run.self /. run.dur else 0.0);
        ("services.invoke_s", per (span_get acc "bench.invoke").dur);
        ( "obs.overhead_ratio",
          median traced.lat /. median plain.lat );
      ]
      @ gc_per_op g0 g1 plain.ops
    in
    let path = write_traces ~workload traced.traces in
    Printf.printf "ops %d untraced + %d traced, failed %d; spans written to %s\n" plain.ops
      traced.ops (plain.failed + traced.failed) path;
    let failed = plain.failed + traced.failed in
    finish ~attempted:(plain.ops + traced.ops) ~failed (per_layer_metrics values)
  end

let collect tallies =
  let f g = Array.fold_left (fun a t -> a + g t) 0 tallies in
  let lat = Array.fold_left (fun a t -> List.rev_append t.c_lat a) [] tallies in
  let sim = Array.fold_left (fun a t -> a +. t.c_sim) 0.0 tallies in
  ( lat,
    f (fun t -> t.c_ops),
    f (fun t -> t.c_failed),
    f (fun t -> t.c_bytes),
    f (fun t -> t.c_nodes),
    sim )

let run_serve ~seed ~seconds ~trace =
  let s, setup =
    timed_setup ~discard:(fun s -> Server.stop s.server) (fun () -> setup_serve seed)
  in
  let count p = Array.fold_left (fun a r -> if p r then a + 1 else a) 0 s.log in
  Printf.printf
    "workload serve: log of %d requests (%d pushed, %d gethotels, %d getrating), %d tree nodes \
     per request (avg)\n"
    (Array.length s.log)
    (count (fun r -> r.push <> None))
    (count (fun r -> r.service = "gethotels"))
    (count (fun r -> r.service = "getrating"))
    (Array.fold_left (fun a r -> a + r.tree_nodes) 0 s.log / Array.length s.log);
  Fun.protect
    ~finally:(fun () -> Server.stop s.server)
    (fun () ->
      (* warm-up, not counted *)
      ignore (serve_loop ~seconds:0.3 ~obs_of:(fun _ -> Obs.null) s.server s.log s.serve_registry);
      Gc.compact ();
      let untraced_seconds = if trace then seconds /. 2.0 else seconds in
      let g0 = Gc.quick_stat () in
      let tallies, _, wall =
        serve_loop ~seconds:untraced_seconds ~obs_of:(fun _ -> Obs.null) s.server s.log
          s.serve_registry
      in
      let g1 = Gc.quick_stat () in
      let lat, ops, failed, bytes, nodes, sim = collect tallies in
      if not trace then begin
        let metrics =
          let per x = x /. float_of_int ops in
          end_to_end ~lat ~ops ~failed ~wall ~calls:1.0 ~sim:(per sim)
            ~bytes:(per (float_of_int bytes))
            ~alloc_words:(words g1 -. words g0)
            ~nodes:(float_of_int nodes) ~setup
        in
        Printf.printf "ops %d, failed %d\n" ops failed;
        finish ~attempted:ops ~failed metrics
      end
      else begin
        let server_obs = Obs.create () in
        let traced_server, registry = start_server ~obs:server_obs seed in
        let ttallies, tobses, _ =
          Fun.protect
            ~finally:(fun () -> Server.stop traced_server)
            (fun () ->
              serve_loop ~seconds:(seconds -. untraced_seconds)
                ~obs_of:(fun _ -> Obs.create ())
                traced_server s.log registry)
        in
        let tlat, tops, tfailed, _, _, _ = collect ttallies in
        let acc = Hashtbl.create 8 in
        span_stats acc server_obs.Obs.trace;
        let total name =
          Array.fold_left (fun a o -> a +. Metrics.total o.Obs.metrics name) 0.0 tobses
        in
        let n = float_of_int tops in
        let serve = span_get acc "net.serve" in
        let call_mean = List.fold_left ( +. ) 0.0 tlat /. n in
        let requests = total "net.requests" in
        let values =
          [
            ("net.server_s", serve.dur /. n);
            ("net.wait_s", call_mean -. (serve.dur /. float_of_int (max 1 serve.spans)));
            ("net.request_bytes", total "net.request_bytes" /. n);
            ("net.response_bytes", total "net.response_bytes" /. n);
            ("net.reuse_ratio", if requests > 0.0 then total "net.reuses" /. requests else 0.0);
            ("obs.overhead_ratio", median tlat /. median lat);
          ]
          @ gc_per_op g0 g1 ops
        in
        let path =
          write_traces ~workload:"serve"
            (server_obs.Obs.trace :: Array.to_list (Array.map (fun o -> o.Obs.trace) tobses))
        in
        Printf.printf "ops %d untraced + %d traced, failed %d; spans written to %s\n" ops tops
          (failed + tfailed) path;
        finish ~attempted:(ops + tops) ~failed:(failed + tfailed) (per_layer_metrics values)
      end)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "city|scan|splice|serve");
      ("--seed", Arg.Set_int seed, "input generation seed");
      ("--seconds", Arg.Set_float seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lazybench.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "lazybench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let correct =
    match !workload with
    | "city" | "scan" | "splice" ->
      run_inprocess ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
    | "serve" -> run_serve ~seed:!seed ~seconds:!seconds ~trace
    | w ->
      prerr_endline ("lazybench: unknown workload " ^ w);
      exit 2
  in
  if not correct then exit 1
