(* One request through the v1 wire protocol, as a client sees it: the
   request is framed, a one-shot [Server.serve] decodes and schedules it
   over an in-process loopback transport, and the response frame is
   decoded back. *)

module Json = Indaas_util.Json
module Frame = Indaas_service.Frame
module Client = Indaas_service.Client
module Server = Indaas_service.Server
module Transport = Indaas_service.Transport

type reply = {
  request : Frame.request;
  response : Frame.response;
  request_bytes : string;
  response_bytes : string;
}

let drain (t : Transport.t) =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    let n = t.Transport.read chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let call srv (req : Frame.request) =
  let client, daemon = Transport.loopback () in
  let request_bytes = Frame.encode_request req in
  client.Transport.write request_bytes;
  client.Transport.close ();
  Server.serve srv daemon;
  let response_bytes = drain client in
  match Client.decode_responses response_bytes with
  | [ response ] -> { request = req; response; request_bytes; response_bytes }
  | rs -> failwith (Printf.sprintf "expected one response, got %d" (List.length rs))

let bytes r = String.length r.request_bytes + String.length r.response_bytes

(* What the codec probe needs from an exchange, kept without its parsed
   response: a retained JSON tree would be live data the collector
   scans during every later timed operation. *)
type exchange = { sent : Frame.request; received : string }

let exchange r = { sent = r.request; received = r.response_bytes }

(* The result payload exactly as the daemon serialized it: the response
   frame minus its length prefix and the [{"id":N,"ok":] envelope. Two
   answers are byte-equal when these strings are. *)
let ok_payload r =
  let prefix = Printf.sprintf "{\"id\":%d,\"ok\":" r.response.Frame.id in
  let s = r.response_bytes in
  let p = String.length prefix in
  if String.length s < 4 + p + 1 || String.sub s 4 p <> prefix then None
  else Some (String.sub s (4 + p) (String.length s - 4 - p - 1))

let error r =
  match r.response.Frame.result with
  | Ok _ -> None
  | Error e -> Some (e.Frame.code, e.Frame.message)

let ok_json r =
  match r.response.Frame.result with Ok j -> Some j | Error _ -> None

(* JSON accessors that fall back to neutral values: a missing field
   then fails the output check that reads it. *)
let member path j =
  List.fold_left
    (fun acc key -> match acc with Some j -> Json.member key j | None -> None)
    (Some j) path

let int_at path j = match member path j with Some (Json.Int i) -> i | _ -> -1

let string_at path j =
  match member path j with Some (Json.String s) -> s | _ -> ""

let float_at path j =
  match member path j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let list_at path j =
  match member path j with Some (Json.List l) -> l | _ -> []

let strings j =
  match j with
  | Json.List l -> List.filter_map (function Json.String s -> Some s | _ -> None) l
  | _ -> []
