(* Tests for the Axml_net subsystem: wire codec round-trips and garbage
   rejection, the loopback client/server path (handshake, version
   mismatch, pool reuse), graceful degradation when the peer dies
   mid-run, and the E2E acceptance assertions — identical answers remote
   vs in-process, strictly fewer wire invocations lazy vs naive, and
   strictly fewer response bytes with query pushing than without. *)

module Tree = Axml_xml.Tree
module Doc = Axml_doc
module P = Axml_query.Pattern
module Parser = Axml_query.Parser
module Eval = Axml_query.Eval
module Registry = Axml_services.Registry
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module City = Axml_workload.City
module Obs = Axml_obs.Obs
module Metrics = Axml_obs.Metrics
module Json = Axml_obs.Json
module Wire = Axml_net.Wire
module Server = Axml_net.Server
module Client = Axml_net.Client
module Remote = Axml_net.Remote

let t = Tree.text

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let el name children = Tree.Element { Tree.name; attrs = []; children }

(* A retry policy whose backoff is slept for real — keep it tiny. *)
let fast_policy =
  {
    Registry.max_retries = 2;
    base_backoff = 0.005;
    backoff_factor = 2.0;
    max_backoff = 0.02;
    attempt_timeout = 5.0;
  }

let with_server ?obs ?caps registry f =
  let server = Server.create ?obs ?caps ~registry () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let echo_registry () =
  let r = Registry.create () in
  Registry.register r ~name:"echo" (fun params -> [ el "val" params ]);
  r

(* ------------------------------------------------------------------ *)
(* Wire codec *)

(* Pattern structure without the pids: decoded patterns carry fresh
   ones, so two patterns agree iff their shapes do. *)
type pshape = S of P.axis * P.label * bool * pshape list

let rec pshape (n : P.node) = S (n.P.axis, n.P.label, n.P.result, List.map pshape n.P.children)

(* Message equality modulo pattern pids. *)
let same_message a b =
  match (a, b) with
  | Wire.Invoke x, Wire.Invoke y ->
    x.id = y.id && x.service = y.service && x.params = y.params
    && Option.map pshape x.push = Option.map pshape y.push
  | Wire.Eval x, Wire.Eval y ->
    x.id = y.id && x.strategy = y.strategy && x.doc = y.doc && x.projected = y.projected
    && pshape x.query = pshape y.query
  | a, b -> a = b

(* A whole frame, encoded and decoded back through the header. *)
let frame_roundtrip m =
  let frame = Wire.encode_frame m in
  let len = Wire.decode_frame_header frame in
  Alcotest.(check int) "header length" (String.length frame - 4) len;
  Wire.decode_payload ~pos:4 frame

let test_tree_roundtrip () =
  let forest =
    [
      Tree.Element
        {
          Tree.name = "guide";
          attrs = [ ("lang", "fr"); ("v", "1") ];
          children =
            [
              el "hotel" [ t "Le Méridien"; el "empty" [] ];
              t "  ";
              (* whitespace-only text must survive — XML printing would drop it *)
              t "a \"quoted\"\nvalue with \x01 control bytes";
            ];
        };
      t "top-level text";
    ]
  in
  let decoded = Wire.forest_of_binary (Wire.forest_to_binary forest) in
  Alcotest.(check bool) "forest round-trips exactly" true (decoded = forest);
  (* and inside an actual frame *)
  match frame_roundtrip (Wire.Result { id = 1; pushed = false; forest }) with
  | Wire.Result { forest = f; _ } -> Alcotest.(check bool) "via a frame too" true (f = forest)
  | _ -> Alcotest.fail "a result frame decoded to another envelope"

let test_pattern_roundtrip () =
  let q =
    Parser.parse
      {|/guide/hotel[name="Best Western"][rating=$R!]/nearby//restaurant[name=$X!]|}
  in
  let decoded = Wire.pattern_of_binary (Wire.pattern_to_binary q.P.root) in
  Alcotest.(check bool) "pattern round-trips structurally" true
    (pshape decoded = pshape q.P.root)

let test_message_roundtrip () =
  let push = (Parser.parse "/r//s[v=$X!]").P.root in
  let msgs =
    [
      Wire.Hello { version = Wire.version; caps = [ Wire.cap_project ] };
      Wire.Hello { version = Wire.version; caps = [] };
      Wire.Welcome
        {
          version = Wire.version;
          services = [ { Wire.name = "a"; push = true }; { Wire.name = "b"; push = false } ];
          caps = [ Wire.cap_project ];
        };
      Wire.Invoke { id = 7; service = "getrating"; params = [ t "Hôtel" ]; push = Some push };
      Wire.Invoke { id = 8; service = "getrating"; params = []; push = None };
      Wire.Result { id = 7; pushed = true; forest = [ el "rating" [ t "5" ] ] };
      Wire.Error { id = 9; transient = true; message = "try again" };
      Wire.Degraded { id = 10; message = "backend down"; retries = 3; timeouts = 1 };
      Wire.Eval
        { id = 11; strategy = "lazy"; query = push; doc = el "r" [ t " " ]; projected = true };
      Wire.Eval { id = 12; strategy = "naive"; query = push; doc = t "x"; projected = false };
      Wire.Report
        {
          id = 13;
          report =
            Json.Obj
              [
                ("answers", Json.List [ Json.Int (-4); Json.Null; Json.Bool false ]);
                ("wall", Json.Float 0.125);
                ("note", Json.String "π ≈ 3.14159");
              ];
        };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "message round-trips" true (same_message m (frame_roundtrip m)))
    msgs

(* Payloads that frame correctly but do not decode. *)
let test_envelope_rejection () =
  let valid = Wire.encode_frame (Wire.Error { id = 1; transient = false; message = "m" }) in
  let payload = String.sub valid 4 (String.length valid - 4) in
  List.iter
    (fun (what, bytes) ->
      match Wire.decode_payload bytes with
      | _ -> Alcotest.failf "garbage envelope decoded: %s" what
      | exception Wire.Protocol_error _ -> ())
    [
      ("empty payload", "");
      ("unknown message tag", "\x08");
      ("unknown message tag 255", "\xff\x00");
      ("invoke missing its fields", "\x02");
      ("invoke with a bad option tag", "\x02\x01\x01s\x00\x02");
      ("result with a bad bool byte", "\x03\x01\x02\x00");
      ("caps count beyond the frame", "\x00\x02\x7f");
      ("string length beyond the frame", "\x04\x01\x00\x50ab");
      ("varint longer than a word", "\x04" ^ String.make 11 '\xff');
      ("trailing bytes", payload ^ "\x00");
    ]

(* Frame-level rejection, against a real socketpair. *)
let test_frame_rejection () =
  let header ?(flag = true) len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    if flag then Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x80));
    b
  in
  let on_pair payload check =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (Unix.write a payload 0 (Bytes.length payload));
        (* EOF after the bytes: a reader that waits for more fails
           with [Closed] instead of blocking *)
        Unix.shutdown a Unix.SHUTDOWN_SEND;
        check b)
  in
  let expect_protocol_error fd =
    match Wire.recv fd with
    | _ -> Alcotest.fail "garbage frame accepted"
    | exception Wire.Protocol_error _ -> ()
  in
  (* zero length *)
  on_pair (header 0) expect_protocol_error;
  (* oversized: rejected from the header alone, before any payload *)
  on_pair (header (Wire.max_frame + 1)) expect_protocol_error;
  (* advertised length with a payload that does not decode *)
  on_pair (Bytes.cat (header 5) (Bytes.of_string "hello")) expect_protocol_error;
  (* an unflagged frame is rejected without decoding, even when its
     payload is a well-formed version-1 JSON handshake *)
  let json_hello = {|{"type":"hello","version":1,"caps":[]}|} in
  on_pair
    (Bytes.cat (header ~flag:false (String.length json_hello)) (Bytes.of_string json_hello))
    expect_protocol_error;
  (* and the unflagged header alone is enough to reject *)
  on_pair (header ~flag:false 5) expect_protocol_error;
  (* EOF before a frame *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  (match Wire.recv b with
  | _ -> Alcotest.fail "EOF produced a frame"
  | exception Wire.Closed -> ());
  Unix.close b

(* Generated garbage (test/gen.ml): every malformed byte string — random
   bytes, truncated headers and payloads, oversize or non-positive
   length prefixes, unflagged JSON-era frames, binary frames over bad
   payloads — is rejected with [Protocol_error] or [Closed], never any
   other exception. *)
let prop_garbage_frames_rejected =
  QCheck.Test.make ~name:"generated garbage is rejected" ~count:200 Gen.arb_garbage
    (fun g ->
      let bytes = Gen.garbage_bytes g in
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ a; b ])
        (fun () ->
          if String.length bytes > 0 then
            ignore (Unix.write_substring a bytes 0 (String.length bytes));
          Unix.shutdown a Unix.SHUTDOWN_SEND;
          match Wire.recv b with
          | _ ->
            (* a binary-flagged random payload can in principle spell a
               valid tagged message, so decoding it is allowed — every
               unflagged frame must be rejected, and escaping with any
               unexpected exception is never allowed *)
            (match g with
            | Gen.Binary_random _ -> true
            | Gen.Random_bytes s -> Char.code s.[0] land 0x80 <> 0
            | _ -> false)
          | exception (Wire.Protocol_error _ | Wire.Closed) -> true))

(* ------------------------------------------------------------------ *)
(* The binary codec: randomized round-trips, pinned bytes, limits *)

(* gen.ml trees wrapped with locally injected whitespace-only text
   leaves and attributes: the codec must preserve them exactly. (The
   shared [Gen.gen_tree] keeps whitespace-only leaves out because the
   XML parse round-trip property drops them.) *)
let gen_wire_tree =
  let open QCheck.Gen in
  map2
    (fun tr ws ->
      Tree.Element
        {
          Tree.name = "root";
          attrs = [ ("lang", "fr"); ("q", "a \"b\"\nc") ];
          children = [ Tree.Text ws; tr; Tree.Text "  \t\n" ];
        })
    Gen.gen_tree
    (oneofl [ " "; "\t"; "\n  " ])

let arb_wire_tree = QCheck.make ~print:(Fmt.to_to_string Tree.pp) gen_wire_tree

let prop_binary_tree_roundtrip =
  QCheck.Test.make ~name:"tree codec round-trips" ~count:200 arb_wire_tree (fun tr ->
      Wire.tree_of_binary (Wire.tree_to_binary tr) = tr
      && Wire.forest_of_binary (Wire.forest_to_binary [ tr; Tree.Text " " ])
         = [ tr; Tree.Text " " ])

let test_binary_pattern_roundtrip () =
  List.iter
    (fun src ->
      let q = (Parser.parse src).P.root in
      Alcotest.(check bool) (Printf.sprintf "pattern %s survives binary" src) true
        (pshape (Wire.pattern_of_binary (Wire.pattern_to_binary q)) = pshape q))
    [
      {|/guide/hotel[name="Best Western"][rating=$R!]/nearby//restaurant[name=$X!]|};
      {|/a//b[c=$X!]|};
      {|/r/*[v="  "]|};
      {|/root/item[val=$X!]|};
    ]

(* Every envelope over generated trees, through a whole frame. *)
let prop_binary_envelope_roundtrip =
  QCheck.Test.make ~name:"every envelope round-trips" ~count:100
    QCheck.(pair arb_wire_tree small_int)
    (fun (tr, n) ->
      let push = (Parser.parse "/r//s[v=$X!]").P.root in
      let msgs =
        [
          Wire.Hello { version = Wire.version; caps = [ Wire.cap_shard; "x" ] };
          Wire.Welcome
            {
              version = Wire.version;
              services = [ { Wire.name = "a"; push = true }; { Wire.name = "b"; push = false } ];
              caps = [ Wire.cap_project; Wire.cap_shard ];
            };
          Wire.Invoke { id = n; service = "getrating"; params = [ tr; t "Hôtel" ]; push = Some push };
          Wire.Invoke { id = n + 1; service = "s"; params = []; push = None };
          Wire.Result { id = n; pushed = true; forest = [ tr ] };
          Wire.Error { id = n; transient = n mod 2 = 0; message = "try \"again\"\n" };
          Wire.Degraded { id = n; message = "backend down"; retries = 3; timeouts = 1 };
          Wire.Eval { id = n; strategy = "lazy"; query = push; doc = tr; projected = true };
          Wire.Report
            {
              id = n;
              report =
                Json.Obj
                  [
                    ("answers", Json.List [ Json.Int n; Json.Null; Json.Bool false ]);
                    ("wall", Json.Float 0.125);
                    ("note", Json.String "π ≈ 3.14159");
                  ];
            };
        ]
      in
      List.for_all
        (fun m ->
          let frame = Wire.encode_frame m in
          Char.code frame.[0] land 0x80 <> 0
          && String.length frame = 4 + Wire.decode_frame_header frame
          && same_message m (Wire.decode_payload ~pos:4 frame))
        msgs)

(* One frame per envelope, pinned byte for byte: the layout of every
   envelope is part of the protocol. Only the version byte of Hello and
   Welcome moved when the protocol became binary-only (version 2). *)
let test_golden_bytes () =
  let forest =
    [
      Tree.Element
        {
          Tree.name = "restaurant";
          attrs = [ ("lang", "fr") ];
          children = [ el "name" [ t "Chez \x01" ]; t "  " ];
        };
      t "\n";
    ]
  in
  let pattern =
    P.make (P.Const "restaurant")
      [
        P.make ~axis:P.Descendant ~result:true P.Wildcard [];
        P.make P.Or [ P.make (P.Value "5") []; P.make (P.Var "x") [] ];
        P.make (P.Fun P.Any_fun) [];
        P.make (P.Fun (P.Named [ "getrating"; "geo" ])) [];
      ]
  in
  Alcotest.(check int) "protocol version" 2 Wire.version;
  let hex s =
    String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  List.iter
    (fun (name, m, expected) ->
      Alcotest.(check string) name expected (hex (Wire.encode_frame m)))
    [
      ( "hello",
        Wire.Hello { version = Wire.version; caps = [ Wire.cap_project; Wire.cap_shard ] },
        "800000110002020770726f6a656374057368617264" );
      ( "welcome",
        Wire.Welcome
          {
            version = Wire.version;
            services =
              [
                { Wire.name = "getrating"; push = true };
                { Wire.name = "forecast"; push = false };
              ];
            caps = [ Wire.cap_project; Wire.cap_shard ];
          },
        "8000002701020209676574726174696e670108666f72656361737400020770726f6a656374057368617264" );
      ( "invoke",
        Wire.Invoke { id = 7; service = "getrating"; params = forest; push = Some pattern },
        "80000075020709676574726174696e6702010a72657374617572616e7401046c616e670266720201046e616d65000100064368657a20010002202000010a0100000a72657374617572616e74000401030100000400020001013500000002017800000005000000060209676574726174696e670367656f0000"
      );
      ( "invoke without push",
        Wire.Invoke { id = 300; service = "forecast"; params = []; push = None },
        "8000000e02ac0208666f7265636173740000" );
      ( "result",
        Wire.Result { id = 7; pushed = true; forest },
        "8000003103070102010a72657374617572616e7401046c616e670266720201046e616d65000100064368657a20010002202000010a"
      );
      ( "error",
        Wire.Error { id = 0; transient = true; message = "boom" },
        "8000000804000104626f6f6d" );
      ( "degraded",
        Wire.Degraded { id = 9; message = "down"; retries = 3; timeouts = 1 },
        "80000009050904646f776e0301" );
      ( "eval",
        Wire.Eval
          {
            id = 11;
            strategy = "lazy";
            query = pattern;
            doc = el "city" forest;
            projected = true;
          },
        "80000077060b046c617a7900000a72657374617572616e74000401030100000400020001013500000002017800000005000000060209676574726174696e670367656f00000104636974790002010a72657374617572616e7401046c616e670266720201046e616d65000100064368657a20010002202000010a01"
      );
      ( "report",
        Wire.Report
          {
            id = 12;
            report =
              Json.Obj
                [
                  ("answers", Json.List [ Json.String "a" ]);
                  ("invoked", Json.Int 3);
                  ("neg", Json.Int (-5));
                  ("seconds", Json.Float 0.25);
                  ("complete", Json.Bool true);
                  ("none", Json.Null);
                ];
          },
        "80000043070c060607616e7377657273050104016107696e766f6b65640206036e65670209077365636f6e647303000000000000d03f08636f6d706c6574650101046e6f6e6500"
      );
    ]

let test_binary_max_frame_rejection () =
  (* encoding a message whose payload exceeds max_frame *)
  let huge = Wire.Result { id = 1; pushed = false; forest = [ t (String.make Wire.max_frame 'x') ] } in
  (match Wire.encode_frame huge with
  | _ -> Alcotest.fail "oversize frame encoded"
  | exception Wire.Protocol_error _ -> ());
  (* a header advertising an oversize length is rejected from the header
     alone *)
  let header len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x80));
    Bytes.to_string b
  in
  (match Wire.decode_frame_header (header (Wire.max_frame + 1)) with
  | _ -> Alcotest.fail "oversize header accepted"
  | exception Wire.Protocol_error _ -> ());
  (* and over a real socket *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      ignore (Unix.write_substring a (header (Wire.max_frame + 1)) 0 4);
      match Wire.recv b with
      | _ -> Alcotest.fail "oversize frame received"
      | exception Wire.Protocol_error _ -> ())

(* A version-1 peer opens with an unflagged JSON Hello: the server
   answers with an Error frame and closes the connection. *)
let test_unflagged_hello_rejected () =
  with_server (echo_registry ()) (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          let hello = Gen.frame {|{"type":"hello","version":1,"caps":["project"]}|} in
          ignore (Unix.write_substring fd hello 0 (String.length hello));
          (match Wire.recv fd with
          | Wire.Error { transient = false; message; _ }, _ ->
            Alcotest.(check bool) "names the missing flag" true
              (contains ~sub:"binary flag" message)
          | _ -> Alcotest.fail "expected a non-transient error reply");
          match Wire.recv fd with
          | _ -> Alcotest.fail "connection still open after the error"
          | exception Wire.Closed -> ()))

(* Capability negotiation end-to-end: a client against a server
   advertising every capability, and against a pre-capability one,
   gets identical answers; the client sees what the server advertised. *)
let test_binary_negotiation_e2e () =
  let expected = ref None in
  let check_one ~caps =
    with_server ~caps (echo_registry ()) (fun server ->
        let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let r, _ =
              Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"echo"
                ~params:[ t "payload"; el "x" [ t "  " ] ]
                ~push:None
            in
            (match !expected with
            | None -> expected := Some r
            | Some e -> Alcotest.(check bool) "identical answers across peers" true (r = e));
            Alcotest.(check (list string)) "advertised capabilities" caps
              (Client.capabilities client)))
  in
  check_one ~caps:[ Wire.cap_project; Wire.cap_shard ];
  check_one ~caps:[]

(* ------------------------------------------------------------------ *)
(* Handshake *)

let test_version_mismatch () =
  with_server (echo_registry ()) (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          ignore (Wire.send fd (Wire.Hello { version = Wire.version + 42; caps = [] }));
          match Wire.recv fd with
          | Wire.Error { transient = false; message; _ }, _ ->
            Alcotest.(check bool) "says version" true (contains ~sub:"version" message)
          | _ -> Alcotest.fail "expected a non-transient error reply"))

let test_handshake_advertises_push () =
  let r = Registry.create () in
  Registry.register r ~name:"pushy" (fun _ -> []);
  Registry.register r ~name:"plain" ~push_capable:false (fun _ -> []);
  with_server r (fun server ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let infos =
            List.sort compare
              (List.map (fun (s : Wire.service_info) -> (s.Wire.name, s.Wire.push))
                 (Client.services client ()))
          in
          Alcotest.(check bool) "advertised capabilities" true
            (infos = [ ("plain", false); ("pushy", true) ])))

(* ------------------------------------------------------------------ *)
(* Remote invocation basics *)

let test_remote_invoke_and_pool_reuse () =
  with_server (echo_registry ()) (fun server ->
      let registry = Registry.create () in
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let names = Remote.register ~retry:fast_policy ~memoize:false ~registry client in
          Alcotest.(check (list string)) "registered" [ "echo" ] names;
          Alcotest.(check bool) "marked remote" true (Registry.is_remote registry "echo");
          let obs = Obs.measuring () in
          for i = 1 to 5 do
            let result, inv =
              Registry.invoke registry ~name:"echo"
                ~params:[ t (string_of_int i) ]
                ~obs ()
            in
            Alcotest.(check bool) "echoed" true (result = [ el "val" [ t (string_of_int i) ] ]);
            Alcotest.(check bool) "bytes on the wire" true
              (inv.Registry.request_bytes > 0 && inv.Registry.response_bytes > 0)
          done;
          Alcotest.(check int) "every request counted" 5
            (Metrics.count obs.Obs.metrics "net.requests" ~labels:[ ("service", "echo") ]);
          (* one connection was dialed during registration; every request
             after it reuses the pooled one *)
          Alcotest.(check int) "no extra dials" 0
            (Metrics.count obs.Obs.metrics "net.connects");
          Alcotest.(check int) "pool reuse" 5 (Metrics.count obs.Obs.metrics "net.reuses")))

let test_unknown_remote_service_fails_fast () =
  with_server (echo_registry ()) (fun server ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match
            Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"nope" ~params:[]
              ~push:None
          with
          | _ -> Alcotest.fail "unknown service answered"
          | exception Registry.Transport_error { transient; _ } ->
            Alcotest.(check bool) "not worth retrying" false transient))

(* ------------------------------------------------------------------ *)
(* Graceful degradation over the wire *)

let test_server_killed_mid_run () =
  let doc =
    Doc.of_xml
      (Axml_xml.Parse.tree
         {|<root><item><axml:call name="echo">a</axml:call></item><item><axml:call name="echo">b</axml:call></item><item><axml:call name="echo">c</axml:call></item></root>|})
  in
  let query = Parser.parse "/root/item[val=$X!]" in
  let server = Server.create ~registry:(echo_registry ()) () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let registry = Registry.create () in
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          ignore (Remote.register ~retry:fast_policy ~memoize:false ~registry client);
          (* the server dies right after its first reply: call 1 expands,
             calls 2 and 3 fail through the whole real retry/backoff loop *)
          Server.kill_after_reply server;
          let r = Lazy_eval.run ~strategy:Lazy_eval.nfqa ~registry query doc in
          Alcotest.(check bool) "degraded, not crashed" false r.Engine.complete;
          Alcotest.(check int) "two calls permanently failed" 2 r.Engine.failed_calls;
          Alcotest.(check int) "first answer survives" 1 (List.length r.Engine.answers);
          Alcotest.(check int) "real retries happened" (2 * fast_policy.Registry.max_retries)
            r.Engine.retries;
          (* the unexpanded calls survive in the document and its serialization *)
          Alcotest.(check int) "calls still pending" 2 (Doc.count_calls doc);
          let xml = Doc.to_string doc in
          Alcotest.(check bool) "unexpanded call serializes" true
            (contains ~sub:"axml:call" xml)))

(* ------------------------------------------------------------------ *)
(* E2E acceptance: the city-guide workload over loopback *)

(* seed 1 yields a non-empty answer set at this scale *)
let city_config = { City.default_config with City.hotels = 8; seed = 1 }

let tuples answers =
  List.map (fun (b : Eval.binding) -> List.sort compare b.Eval.vars) answers
  |> List.sort_uniq compare

let wire_invocations registry =
  List.length (List.filter (fun i -> not i.Registry.cached) (Registry.history registry))

let wire_response_bytes registry =
  List.fold_left
    (fun acc (i : Registry.invocation) ->
      if i.Registry.cached then acc else acc + i.Registry.response_bytes)
    0 (Registry.history registry)

(* Run the city workload against a serving peer. Documents mutate in
   place, so every run generates a fresh (deterministic) instance; only
   the server's registry is shared. *)
let remote_run ~port ~eval () =
  let inst = City.generate city_config in
  let registry = Registry.create () in
  let client = Client.create ~host:"127.0.0.1" ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      ignore (Remote.register ~retry:fast_policy ~memoize:false ~registry client);
      let result = eval ~registry ~inst in
      (result, registry))

let lazy_eval ~push ~registry ~inst =
  let strategy =
    if push then Lazy_eval.with_push Lazy_eval.nfqa_typed else Lazy_eval.nfqa_typed
  in
  Lazy_eval.run ~strategy ~schema:inst.City.schema ~registry inst.City.query inst.City.doc

let test_e2e_city_acceptance () =
  let served = City.generate city_config in
  with_server served.City.registry (fun server ->
      let port = Server.port server in
      (* (a) identical answers remote vs in-process *)
      let local_inst = City.generate city_config in
      let local =
        Lazy_eval.run ~strategy:Lazy_eval.nfqa_typed ~schema:local_inst.City.schema
          ~registry:local_inst.City.registry local_inst.City.query local_inst.City.doc
      in
      let remote_lazy, lazy_reg = remote_run ~port ~eval:(lazy_eval ~push:false) () in
      Alcotest.(check bool) "remote evaluation is complete" true
        remote_lazy.Engine.complete;
      Alcotest.(check bool) "identical answers remote vs in-process" true
        (tuples remote_lazy.Engine.answers = tuples local.Engine.answers);
      Alcotest.(check bool) "answers are non-trivial" true
        (tuples remote_lazy.Engine.answers <> []);
      (* (b) lazy crosses the wire strictly less often than naive *)
      let remote_naive, naive_reg =
        remote_run ~port
          ~eval:(fun ~registry ~inst -> Engine.naive_run registry inst.City.query inst.City.doc)
          ()
      in
      Alcotest.(check bool) "naive finds the same answers" true
        (tuples remote_naive.Engine.answers = tuples local.Engine.answers);
      let lazy_wire = wire_invocations lazy_reg in
      let naive_wire = wire_invocations naive_reg in
      Alcotest.(check bool)
        (Printf.sprintf "lazy (%d) < naive (%d) wire invocations" lazy_wire naive_wire)
        true
        (lazy_wire < naive_wire);
      (* (c) pushing ships strictly fewer response bytes *)
      let remote_push, push_reg = remote_run ~port ~eval:(lazy_eval ~push:true) () in
      Alcotest.(check bool) "pushed answers still identical" true
        (tuples remote_push.Engine.answers = tuples local.Engine.answers);
      Alcotest.(check bool) "subqueries were actually pushed" true
        (remote_push.Engine.pushed > 0);
      let pushed_bytes = wire_response_bytes push_reg in
      let plain_bytes = wire_response_bytes lazy_reg in
      Alcotest.(check bool)
        (Printf.sprintf "push (%d B) < no-push (%d B) response bytes" pushed_bytes
           plain_bytes)
        true
        (pushed_bytes < plain_bytes))

(* The same garbage thrown at a live server: every connection is
   answered or dropped, and the listener keeps serving afterwards — a
   hostile peer cannot kill the server thread. *)
let test_server_survives_garbage () =
  with_server (echo_registry ()) (fun server ->
      let port = Server.port server in
      let garbage =
        QCheck.Gen.generate ~rand:(Random.State.make [| 0xfee1 |]) ~n:40 Gen.gen_garbage
      in
      List.iter
        (fun g ->
          let bytes = Gen.garbage_bytes g in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              (if String.length bytes > 0 then
                 try ignore (Unix.write_substring fd bytes 0 (String.length bytes))
                 with Unix.Unix_error _ -> ());
              (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
              (* drain the error reply (if any) until the server closes *)
              let buf = Bytes.create 256 in
              try
                while Unix.read fd buf 0 256 > 0 do
                  ()
                done
              with Unix.Unix_error _ -> ()))
        garbage;
      let client = Client.create ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          Alcotest.(check int) "still serving" 1
            (List.length (Client.services client ()))))

(* The portable select backend (the non-Linux / pre-epoll path) serves
   the same protocol: force it and run real exchanges through it. *)
let test_select_backend () =
  let server = Server.create ~force_select:true ~registry:(echo_registry ()) () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          for i = 1 to 20 do
            let result, _ =
              Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"echo"
                ~params:[ t (string_of_int i) ]
                ~push:None
            in
            Alcotest.(check bool) "echoed through select loop" true
              (result = [ el "val" [ t (string_of_int i) ] ])
          done))

(* After a stop, the port refuses connections — no zombie listener. *)
let test_stop_refuses_connections () =
  let server = Server.create ~registry:(echo_registry ()) () in
  Server.start server;
  let port = Server.port server in
  Server.stop server;
  let client = Client.create ~host:"127.0.0.1" ~port () in
  match Client.services client () with
  | _ -> Alcotest.fail "stopped server answered"
  | exception Registry.Transport_error { transient = true; _ } -> ()

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "tree round-trip" `Quick test_tree_roundtrip;
          Alcotest.test_case "pattern round-trip" `Quick test_pattern_roundtrip;
          Alcotest.test_case "message round-trip" `Quick test_message_roundtrip;
          Alcotest.test_case "envelope rejection" `Quick test_envelope_rejection;
          Alcotest.test_case "frame rejection" `Quick test_frame_rejection;
          QCheck_alcotest.to_alcotest prop_garbage_frames_rejected;
          Alcotest.test_case "server survives garbage" `Quick test_server_survives_garbage;
        ] );
      ( "wire-binary",
        [
          QCheck_alcotest.to_alcotest prop_binary_tree_roundtrip;
          Alcotest.test_case "pattern round-trip" `Quick test_binary_pattern_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_envelope_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "max_frame rejection" `Quick test_binary_max_frame_rejection;
          Alcotest.test_case "unflagged hello rejected" `Quick test_unflagged_hello_rejected;
          Alcotest.test_case "negotiation e2e" `Quick test_binary_negotiation_e2e;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "push capability advertised" `Quick
            test_handshake_advertises_push;
        ] );
      ( "remote",
        [
          Alcotest.test_case "invoke + pool reuse" `Quick test_remote_invoke_and_pool_reuse;
          Alcotest.test_case "unknown service fails fast" `Quick
            test_unknown_remote_service_fails_fast;
          Alcotest.test_case "stop refuses connections" `Quick test_stop_refuses_connections;
          Alcotest.test_case "select backend serves" `Quick test_select_backend;
        ] );
      ( "degradation",
        [ Alcotest.test_case "server killed mid-run" `Quick test_server_killed_mid_run ] );
      ( "e2e", [ Alcotest.test_case "city over loopback" `Quick test_e2e_city_acceptance ] );
    ]
