(* Differential server oracle: the same request stream must produce the
   same verdicts from an in-process serial reference and from the
   sharded pipelined engine.

   A seeded generator builds a stream of check/cert/lint/ping requests
   (plus envelope errors) with distinct correlation ids. The stream is
   fed one line at a time through [Server.handle] of a fresh reference
   server that never accepts a connection, and replayed pipelined
   (window of in-flight requests, several connections) over sockets
   against a second, independent server with its own cache and pool;
   responses are canonicalised — timing ([duration_ns]) and cache
   disposition ([cache]) fields stripped, since identical concurrent
   requests may legitimately race the cache — and compared byte for
   byte per id. Any divergence is a bug in the sharded transport or in
   the classification core the two share. *)

module J = Ifc_pipeline.Telemetry

type divergence = { id : int; request : string; reference : string; sharded : string }

type result_t = {
  requests : int;
  compared : int;
  divergences : divergence list;
}

(* ------------------------------------------------------------------ *)
(* Stream generation *)

let gen_line rng i =
  let id = J.Int i in
  let variant = Random.State.int rng 24 in
  let program = Loadgen.program_variant variant in
  match Random.State.int rng 12 with
  | 0 | 1 | 2 | 3 -> Protocol.check_line ~id ~name:"oracle" program
  | 4 | 5 ->
    (* A leaky program: verdicts must disagree with the clean variant
       identically on both servers. *)
    Protocol.check_line ~id ~name:"oracle"
      ~binding:"h : high\nx : low\ny : low"
      (Printf.sprintf
         "var h, x, y : integer;\nbegin x := h; y := x + %d end" variant)
  | 6 | 7 -> Protocol.cert_emit_line ~id ~name:"oracle" program
  | 8 | 9 -> Protocol.lint_line ~id ~name:"oracle" program
  | 10 -> Protocol.ping_line ~id ()
  | _ -> (
    (* Envelope errors: responses are fixed strings, so they diff too. *)
    match Random.State.int rng 3 with
    | 0 -> Printf.sprintf {|{"v": 99, "id": %d, "op": "ping"}|} i
    | 1 -> Printf.sprintf {|{"v": 1, "id": %d}|} i
    | _ -> Printf.sprintf {|{"v": 1, "id": %d, "op": "frobnicate"}|} i)

let gen_stream ~seed ~requests =
  let rng = Random.State.make [| seed |] in
  List.init requests (fun i -> (i, gen_line rng i))

(* ------------------------------------------------------------------ *)
(* Canonicalisation *)

let rec strip json =
  match json with
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "cache" || k = "duration_ns" then None
           else Some (k, strip v))
         fields)
  | J.List items -> J.List (List.map strip items)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Replay *)

(* Pipelined replay: the stream is dealt round-robin over [conns]
   connections, each keeping [window] requests in flight. *)
let replay_pipelined ?(conns = 4) ?(window = 16) endpoint stream =
  let responses = Hashtbl.create (List.length stream) in
  let mutex = Mutex.create () in
  let failure = ref None in
  let fail msg =
    Mutex.lock mutex;
    if !failure = None then failure := Some msg;
    Mutex.unlock mutex
  in
  let slice k =
    List.filteri (fun idx _ -> idx mod conns = k) stream
  in
  let worker k =
    match Client.connect ~retry_for:5. endpoint with
    | Error msg -> fail msg
    | Ok client ->
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let fd = Client.fd client and reader = Client.reader client in
      let todo = ref (slice k) and inflight = ref 0 and expected = ref 0 in
      List.iter (fun _ -> incr expected) (slice k);
      let received = ref 0 in
      let send_some () =
        while !inflight < window && !todo <> [] do
          match !todo with
          | [] -> ()
          | (_, line) :: rest ->
            if Conn.write_line fd line then begin
              todo := rest;
              incr inflight
            end
            else begin
              fail "pipelined replay: write failed";
              todo := []
            end
        done
      in
      send_some ();
      while !received < !expected && !failure = None do
        (match Conn.next_line reader with
        | `Line l -> (
          match
            Option.bind (Jsonx.parse l |> Result.to_option) (fun json ->
                Option.map
                  (fun id -> (id, json))
                  (Option.bind (Jsonx.member "id" json) Jsonx.int_opt))
          with
          | Some (id, json) ->
            Mutex.lock mutex;
            Hashtbl.replace responses id (J.json_to_string (strip json));
            Mutex.unlock mutex;
            incr received;
            decr inflight
          | None -> fail ("pipelined replay: uncorrelatable response " ^ l))
        | `Eof -> fail "pipelined replay: connection closed early"
        | `Oversized -> fail "pipelined replay: oversized response"
        | `Stop -> fail "pipelined replay: read interrupted");
        send_some ()
      done
  in
  let threads = List.init conns (fun k -> Thread.create worker k) in
  List.iter Thread.join threads;
  match !failure with Some msg -> Error msg | None -> Ok responses

(* ------------------------------------------------------------------ *)
(* Harness *)

(* A fresh server with its own cache and pool on a temporary Unix
   socket; [f] owns its lifecycle, and the socket file is removed
   afterwards. *)
let with_server ~shards ~workers f =
  let sock = Filename.temp_file "ifc-oracle" ".sock" in
  let config =
    {
      Server.default_config with
      endpoints = [ Conn.Unix_socket sock ];
      workers;
      shards;
      cache_capacity = 256;
    }
  in
  Fun.protect ~finally:(fun () -> try Sys.remove sock with Sys_error _ -> ())
  @@ fun () ->
  match Server.create config with
  | Error msg -> Error msg
  | Ok server -> f server (Conn.Unix_socket sock)

(* The reference transcript: a server of its own (sharing a cache or
   pool with the server under test would read the reference's results
   back) driven serially through [Server.handle]. Its accept loop is
   only entered once the stream is done, to drain it. One worker
   suffices, since at most one job is ever outstanding. *)
let replay_reference stream =
  with_server ~shards:1 ~workers:1 @@ fun server _endpoint ->
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Server.run server)
  @@ fun () ->
  let responses = Hashtbl.create (List.length stream) in
  let rec go = function
    | [] -> Ok responses
    | (i, line) :: rest -> (
      match Jsonx.parse (Server.handle server (`Line line)) with
      | Ok json ->
        Hashtbl.replace responses i (J.json_to_string (strip json));
        go rest
      | Error msg ->
        Error (Printf.sprintf "response to id %d is not JSON: %s" i msg))
  in
  go stream

(* The transcript under test: the sharded engine serving the pipelined
   replay over its socket. *)
let replay_sharded ~shards ~workers stream =
  with_server ~shards ~workers @@ fun server endpoint ->
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join thread)
    (fun () -> replay_pipelined endpoint stream)

(* ------------------------------------------------------------------ *)
(* Comparison *)

let diff stream ~reference ~sharded =
  let response transcript i =
    Option.value ~default:"<no response>" (Hashtbl.find_opt transcript i)
  in
  List.filter_map
    (fun (i, request) ->
      let r = response reference i and s = response sharded i in
      if r = s then None else Some { id = i; request; reference = r; sharded = s })
    stream

let run ?(seed = 42) ?(requests = 500) ?(shards = 2) ?(workers = 2) () =
  let stream = gen_stream ~seed ~requests in
  match replay_reference stream with
  | Error msg -> Error ("reference: " ^ msg)
  | Ok reference -> (
    match replay_sharded ~shards ~workers stream with
    | Error msg -> Error ("sharded engine: " ^ msg)
    | Ok sharded ->
      Ok
        {
          requests;
          compared = List.length stream;
          divergences = diff stream ~reference ~sharded;
        })

let report_fields r =
  [
    ("requests", J.Int r.requests);
    ("compared", J.Int r.compared);
    ("divergences", J.Int (List.length r.divergences));
    ( "first_divergences",
      J.List
        (List.filteri
           (fun i _ -> i < 5)
           (List.map
              (fun d ->
                J.Obj
                  [
                    ("id", J.Int d.id);
                    ("request", J.String d.request);
                    ("reference", J.String d.reference);
                    ("sharded", J.String d.sharded);
                  ])
              r.divergences)) );
  ]
