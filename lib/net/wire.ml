module Tree = Axml_xml.Tree
module P = Axml_query.Pattern
module Json = Axml_obs.Json

let version = 2
let max_frame = 64 * 1024 * 1024

exception Protocol_error of string
exception Closed

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Envelopes *)

type service_info = { name : string; push : bool }

(* Capabilities ride the handshake as a list of opaque strings; a peer
   uses an optional feature only when the other side listed it. *)
let cap_project = "project"

(* A shard-aware peer: its Welcome service list is complete enough to be
   used for replica discovery and shard assignment. Purely an
   advertisement — no wire-format change rides on it. *)
let cap_shard = "shard"

type message =
  | Hello of { version : int; caps : string list }
  | Welcome of { version : int; services : service_info list; caps : string list }
  | Invoke of {
      id : int;
      service : string;
      params : Tree.forest;
      push : P.node option;
    }
  | Result of { id : int; pushed : bool; forest : Tree.forest }
  | Error of { id : int; transient : bool; message : string }
  | Degraded of { id : int; message : string; retries : int; timeouts : int }
  | Eval of { id : int; strategy : string; query : P.node; doc : Tree.t; projected : bool }
  | Report of { id : int; report : Json.t }

(* ------------------------------------------------------------------ *)
(* The codec.

   Strings are length-prefixed, ints are LEB128 varints (zigzag where a
   value can be negative), every composite opens with a one-byte tag.
   Decoding is hardened for hostile peers: every read is bounds-checked
   against the frame, every length/count is capped by the bytes that
   remain (an item costs at least one byte, so a count beyond that is
   garbage), and pathological nesting surfaces as {!Protocol_error},
   never as an escaped [Stack_overflow]. *)

(* A growable output buffer with byte-addressable backing, so the
   4-byte frame header can be patched in after the payload is encoded —
   [Buffer.t] cannot do that without a copy. *)
type wbuf = { mutable wb : Bytes.t; mutable wlen : int }

let wbuf_make n = { wb = Bytes.create n; wlen = 0 }
let wbuf_reset w = w.wlen <- 0

let wbuf_ensure w n =
  let need = w.wlen + n in
  if need > Bytes.length w.wb then begin
    let cap = ref (max 256 (2 * Bytes.length w.wb)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit w.wb 0 b 0 w.wlen;
    w.wb <- b
  end

let put_byte w c =
  wbuf_ensure w 1;
  Bytes.unsafe_set w.wb w.wlen (Char.unsafe_chr (c land 0xff));
  w.wlen <- w.wlen + 1

let put_raw w s =
  let n = String.length s in
  wbuf_ensure w n;
  Bytes.blit_string s 0 w.wb w.wlen n;
  w.wlen <- w.wlen + n

(* Unsigned LEB128 over the full word: [lsr] is a logical shift, so
   even a negative word (zigzag output of a huge negative int)
   terminates after at most ten groups. *)
let rec put_uv w n =
  if n >= 0 && n < 0x80 then put_byte w n
  else begin
    put_byte w (0x80 lor (n land 0x7f));
    put_uv w (n lsr 7)
  end

let put_int w n = put_uv w ((n lsl 1) lxor (n asr 62))

let put_str w s =
  put_uv w (String.length s);
  put_raw w s

let put_bool w b = put_byte w (if b then 1 else 0)

let put_u64 w x =
  for i = 0 to 7 do
    put_byte w (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff)
  done

(* ----- reader ----- *)

type rdr = { src : string; mutable pos : int; limit : int }

let rd_byte r =
  if r.pos >= r.limit then fail "binary frame truncated";
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let rd_uv r =
  let rec go shift acc =
    if shift > 63 then fail "binary varint longer than a word";
    let b = rd_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let rd_int r =
  let u = rd_uv r in
  (u lsr 1) lxor (-(u land 1))

(* A length or item count: every string byte / list item costs at least
   one input byte, so anything beyond the bytes that remain is garbage —
   reject it before allocating. *)
let rd_len r =
  let n = rd_uv r in
  if n < 0 || n > r.limit - r.pos then
    fail "binary length %d exceeds the %d bytes remaining" n (r.limit - r.pos);
  n

let rd_str r =
  let n = rd_len r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rd_bool r =
  match rd_byte r with
  | 0 -> false
  | 1 -> true
  | b -> fail "binary bool byte %d" b

let rd_u64 r =
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor !x (Int64.shift_left (Int64.of_int (rd_byte r)) (8 * i))
  done;
  !x

(* In-order list decoding: [n] has already passed {!rd_len}. *)
let rd_list r n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

(* ----- trees ----- *)

let rec tree_to_bin w = function
  | Tree.Text s ->
    put_byte w 0;
    put_str w s
  | Tree.Element { Tree.name; attrs; children } ->
    put_byte w 1;
    put_str w name;
    put_uv w (List.length attrs);
    List.iter
      (fun (k, v) ->
        put_str w k;
        put_str w v)
      attrs;
    put_uv w (List.length children);
    List.iter (tree_to_bin w) children

let forest_to_bin w f =
  put_uv w (List.length f);
  List.iter (tree_to_bin w) f

let rec tree_of_bin r =
  match rd_byte r with
  | 0 -> Tree.Text (rd_str r)
  | 1 ->
    let name = rd_str r in
    let attrs =
      rd_list r (rd_len r) (fun r ->
          let k = rd_str r in
          let v = rd_str r in
          (k, v))
    in
    let children = rd_list r (rd_len r) tree_of_bin in
    Tree.Element { Tree.name; attrs; children }
  | t -> fail "unknown binary tree tag %d" t

let forest_of_bin r = rd_list r (rd_len r) tree_of_bin

(* ----- patterns ----- *)

let label_to_bin w = function
  | P.Const s ->
    put_byte w 0;
    put_str w s
  | P.Value s ->
    put_byte w 1;
    put_str w s
  | P.Var s ->
    put_byte w 2;
    put_str w s
  | P.Wildcard -> put_byte w 3
  | P.Or -> put_byte w 4
  | P.Fun P.Any_fun -> put_byte w 5
  | P.Fun (P.Named names) ->
    put_byte w 6;
    put_uv w (List.length names);
    List.iter (put_str w) names

let label_of_bin r =
  match rd_byte r with
  | 0 -> P.Const (rd_str r)
  | 1 -> P.Value (rd_str r)
  | 2 -> P.Var (rd_str r)
  | 3 -> P.Wildcard
  | 4 -> P.Or
  | 5 -> P.Fun P.Any_fun
  | 6 -> P.Fun (P.Named (rd_list r (rd_len r) rd_str))
  | t -> fail "unknown binary pattern label tag %d" t

let rec pattern_to_bin w (n : P.node) =
  put_byte w (match n.P.axis with P.Child -> 0 | P.Descendant -> 1);
  label_to_bin w n.P.label;
  put_bool w n.P.result;
  put_uv w (List.length n.P.children);
  List.iter (pattern_to_bin w) n.P.children

let rec pattern_of_bin r =
  let axis =
    match rd_byte r with
    | 0 -> P.Child
    | 1 -> P.Descendant
    | t -> fail "unknown binary pattern axis tag %d" t
  in
  let label = label_of_bin r in
  let result = rd_bool r in
  let children = rd_list r (rd_len r) pattern_of_bin in
  P.make ~axis ~result label children

(* ----- JSON values (the Report envelope carries one verbatim) ----- *)

let rec json_to_bin w = function
  | Json.Null -> put_byte w 0
  | Json.Bool b ->
    put_byte w 1;
    put_bool w b
  | Json.Int i ->
    put_byte w 2;
    put_int w i
  | Json.Float f ->
    put_byte w 3;
    put_u64 w (Int64.bits_of_float f)
  | Json.String s ->
    put_byte w 4;
    put_str w s
  | Json.List xs ->
    put_byte w 5;
    put_uv w (List.length xs);
    List.iter (json_to_bin w) xs
  | Json.Obj kvs ->
    put_byte w 6;
    put_uv w (List.length kvs);
    List.iter
      (fun (k, v) ->
        put_str w k;
        json_to_bin w v)
      kvs

let rec json_of_bin r =
  match rd_byte r with
  | 0 -> Json.Null
  | 1 -> Json.Bool (rd_bool r)
  | 2 -> Json.Int (rd_int r)
  | 3 -> Json.Float (Int64.float_of_bits (rd_u64 r))
  | 4 -> Json.String (rd_str r)
  | 5 -> Json.List (rd_list r (rd_len r) json_of_bin)
  | 6 ->
    Json.Obj
      (rd_list r (rd_len r) (fun r ->
           let k = rd_str r in
           (k, json_of_bin r)))
  | t -> fail "unknown binary JSON tag %d" t

(* ----- envelopes ----- *)

let message_to_bin w = function
  | Hello { version; caps } ->
    put_byte w 0;
    put_uv w version;
    put_uv w (List.length caps);
    List.iter (put_str w) caps
  | Welcome { version; services; caps } ->
    put_byte w 1;
    put_uv w version;
    put_uv w (List.length services);
    List.iter
      (fun s ->
        put_str w s.name;
        put_bool w s.push)
      services;
    put_uv w (List.length caps);
    List.iter (put_str w) caps
  | Invoke { id; service; params; push } -> (
    put_byte w 2;
    put_uv w id;
    put_str w service;
    forest_to_bin w params;
    match push with
    | None -> put_byte w 0
    | Some p ->
      put_byte w 1;
      pattern_to_bin w p)
  | Result { id; pushed; forest } ->
    put_byte w 3;
    put_uv w id;
    put_bool w pushed;
    forest_to_bin w forest
  | Error { id; transient; message } ->
    put_byte w 4;
    put_uv w id;
    put_bool w transient;
    put_str w message
  | Degraded { id; message; retries; timeouts } ->
    put_byte w 5;
    put_uv w id;
    put_str w message;
    put_uv w retries;
    put_uv w timeouts
  | Eval { id; strategy; query; doc; projected } ->
    put_byte w 6;
    put_uv w id;
    put_str w strategy;
    pattern_to_bin w query;
    tree_to_bin w doc;
    put_bool w projected
  | Report { id; report } ->
    put_byte w 7;
    put_uv w id;
    json_to_bin w report

let message_of_bin r =
  match rd_byte r with
  | 0 ->
    let version = rd_uv r in
    let caps = rd_list r (rd_len r) rd_str in
    Hello { version; caps }
  | 1 ->
    let version = rd_uv r in
    let services =
      rd_list r (rd_len r) (fun r ->
          let name = rd_str r in
          let push = rd_bool r in
          { name; push })
    in
    let caps = rd_list r (rd_len r) rd_str in
    Welcome { version; services; caps }
  | 2 ->
    let id = rd_uv r in
    let service = rd_str r in
    let params = forest_of_bin r in
    let push =
      match rd_byte r with
      | 0 -> None
      | 1 -> Some (pattern_of_bin r)
      | t -> fail "unknown binary option tag %d" t
    in
    Invoke { id; service; params; push }
  | 3 ->
    let id = rd_uv r in
    let pushed = rd_bool r in
    let forest = forest_of_bin r in
    Result { id; pushed; forest }
  | 4 ->
    let id = rd_uv r in
    let transient = rd_bool r in
    let message = rd_str r in
    Error { id; transient; message }
  | 5 ->
    let id = rd_uv r in
    let message = rd_str r in
    let retries = rd_uv r in
    let timeouts = rd_uv r in
    Degraded { id; message; retries; timeouts }
  | 6 ->
    let id = rd_uv r in
    let strategy = rd_str r in
    let query = pattern_of_bin r in
    let doc = tree_of_bin r in
    let projected = rd_bool r in
    Eval { id; strategy; query; doc; projected }
  | 7 ->
    let id = rd_uv r in
    let report = json_of_bin r in
    Report { id; report }
  | t -> fail "unknown binary message tag %d" t

(* Standalone per-type codecs (tests, tools). *)

let to_bin_str enc x =
  let w = wbuf_make 256 in
  enc w x;
  Bytes.sub_string w.wb 0 w.wlen

(* Decodes exactly [s.[pos .. limit-1]] with [dec]. *)
let decode_slice name dec s pos limit =
  let r = { src = s; pos; limit } in
  match dec r with
  | v ->
    if r.pos <> r.limit then
      fail "binary %s has %d trailing bytes" name (r.limit - r.pos);
    v
  | exception Stack_overflow -> fail "binary %s nests too deeply" name

let of_bin_str name dec s = decode_slice name dec s 0 (String.length s)

let tree_to_binary t = to_bin_str tree_to_bin t
let tree_of_binary s = of_bin_str "tree" tree_of_bin s
let forest_to_binary f = to_bin_str forest_to_bin f
let forest_of_binary s = of_bin_str "forest" forest_of_bin s
let pattern_to_binary p = to_bin_str pattern_to_bin p
let pattern_of_binary s = of_bin_str "pattern" pattern_of_bin s

(* ------------------------------------------------------------------ *)
(* Frames *)

let rec really_write fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> really_write fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd buf off len

let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise Closed
    | n -> really_read fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf off len

(* Wire format: a 4-byte big-endian payload length, then the payload.
   [max_frame] fits in 26 bits, so the top bit of the first header byte
   is free; every frame sets it. A header without it is what a
   version-1 peer sent for its JSON frames (always, for the handshake),
   so it is rejected before any payload is read or decoded — a mixed
   pair of peers fails at the handshake with a clear error. *)

let binary_flag = 0x80

type scratch = {
  out : wbuf;  (* whole outgoing frame, header included *)
  mutable inb : Bytes.t;  (* reusable incoming payload buffer *)
}

let scratch () = { out = wbuf_make 4096; inb = Bytes.create 4096 }

let decode_frame_header s =
  if String.length s < 4 then fail "frame header truncated";
  let byte i = Char.code (String.unsafe_get s i) in
  if byte 0 land binary_flag = 0 then
    fail "frame header lacks the binary flag (a JSON frame from a version-1 peer?)";
  let len = ((byte 0 land 0x7f) lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  if len <= 0 || len > max_frame then
    fail "frame length %d is outside (0, %d]" len max_frame;
  len

(* Encodes [msg] into [scr.out] as one complete frame (header
   included): the payload is written from offset 4, then the header is
   patched in — no copy, and the scratch's backing buffer amortises to
   the largest frame the connection ever sends. *)
let encode_into scr msg =
  let w = scr.out in
  wbuf_reset w;
  wbuf_ensure w 4;
  w.wlen <- 4;
  message_to_bin w msg;
  let len = w.wlen - 4 in
  if len > max_frame then fail "frame of %d bytes exceeds the %d-byte limit" len max_frame;
  Bytes.set w.wb 0 (Char.chr (((len lsr 24) land 0x7f) lor binary_flag));
  Bytes.set w.wb 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set w.wb 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set w.wb 3 (Char.chr (len land 0xff))

let encode_frame msg =
  let scr = scratch () in
  encode_into scr msg;
  Bytes.sub_string scr.out.wb 0 scr.out.wlen

let encode_frame_into scr msg =
  encode_into scr msg;
  (scr.out.wb, scr.out.wlen)

let decode_payload ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    fail "frame payload slice out of bounds";
  decode_slice "frame" message_of_bin s pos (pos + len)

let send ?scratch:scr fd msg =
  let scr = match scr with Some s -> s | None -> scratch () in
  encode_into scr msg;
  really_write fd scr.out.wb 0 scr.out.wlen;
  scr.out.wlen

let recv ?scratch:scr fd =
  let scr = match scr with Some s -> s | None -> scratch () in
  let header = Bytes.create 4 in
  really_read fd header 0 4;
  let len = decode_frame_header (Bytes.unsafe_to_string header) in
  if Bytes.length scr.inb < len then scr.inb <- Bytes.create len;
  really_read fd scr.inb 0 len;
  (* decode copies every string it keeps, so reading straight off the
     reusable buffer is safe *)
  (decode_payload ~len (Bytes.unsafe_to_string scr.inb), 4 + len)
