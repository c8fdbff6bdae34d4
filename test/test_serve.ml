(* The serving tentpole: umlfront serve as a long-lived, cache-keyed
   compilation service.

   Layers under test, inside out:
   - Http: the incremental codec — torn 1-byte reads, a head fed one
     byte per read in linear time, split terminators, pipelining,
     missing/duplicate Content-Length, header case-insensitivity, what
     decoding and encoding allocate, and the response serializer pinned
     byte-for-byte against a golden;
   - Cache: LRU semantics — recency, eviction order, byte bound,
     hit/miss/eviction counters — and both indexes confirming a hit byte
     for byte: two keys under one id, a colliding raw body, an entry's
     body, keys (the model's marshalled bytes included) and request body
     each counted once in the bound, eviction from both;
   - Api: query-option decoding, the cache key over the options each
     endpoint reads and the parsed model's marshalled bytes, and
     simulate on the compiled plan against the Exec.run oracle;
   - JSON round-trips: Diagnostic and Conform reports decode back to
     what was encoded, so the wire format the server shares with the
     CLI is invertible;
   - the live server over the loopback: every endpoint end to end,
     byte-parity with the CLI's --format json output, the failure
     paths (404/405/413/422/400), overload 503, raw-socket pipelining;
   - the hammer: 200 concurrent mixed requests over random lint-clean
     models (all six Random_models shapes) must produce byte-identical
     bodies to a sequential replay, zero cross-request telemetry bleed
     (X-Request-Spans stable, flow runs == cache misses) and a warm
     cache (hit ratio > 0 in /metrics). *)

module Http = Umlfront_serve.Http
module Cache = Umlfront_serve.Cache
module Api = Umlfront_serve.Api
module Server = Umlfront_serve.Server
module Client = Umlfront_serve.Serve_client
module Traceparent = Umlfront_serve.Traceparent
module A = Umlfront_analysis
module Conf = Umlfront_conformance.Conform
module R = Umlfront_casestudies.Random_models
module CS = Umlfront_casestudies
module Core = Umlfront_core
module U = Umlfront_uml
module Obs = Umlfront_obs
module Json = Umlfront_obs.Json

let check = Alcotest.check
let checkb name = Alcotest.check Alcotest.bool name true
let test name f = Alcotest.test_case name `Quick f
let read_file path = In_channel.with_open_bin path In_channel.input_all

let didactic_xmi = lazy (U.Xmi.to_string (CS.Didactic.model ()))
let crane_xmi = lazy (U.Xmi.to_string (CS.Crane_system.model ()))

(* [s] with every [sub] replaced by [by]; [sub] must occur. *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i found =
    if i > String.length s - n then begin
      if not found then Alcotest.failf "%S does not occur" sub;
      Buffer.add_string b (String.sub s i (String.length s - i))
    end
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n) true
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1) found
    end
  in
  go 0 false;
  Buffer.contents b

let word_bytes = float (Sys.word_size / 8)

(* --- http codec ------------------------------------------------------ *)

let simple_post ?(cl = true) body =
  Printf.sprintf "POST /api/lint?file=m.xml HTTP/1.1\r\nHost: x\r\n%sX-Thing: v\r\n\r\n%s"
    (if cl then Printf.sprintf "Content-Length: %d\r\n" (String.length body) else "")
    body

let decode_all s =
  let d = Http.decoder () in
  Http.feed d s;
  let rec drain acc =
    match Http.next d with
    | `Request r -> drain (r :: acc)
    | `Await -> List.rev acc
    | `Error e -> failwith ("decode error: " ^ Http.error_message e)
  in
  drain []

let http_tests =
  [
    test "request line, path, query and headers decode" (fun () ->
        match decode_all (simple_post "hello") with
        | [ r ] ->
            check Alcotest.string "meth" "POST" r.Http.meth;
            check Alcotest.string "path" "/api/lint" r.Http.path;
            check
              Alcotest.(list (pair string string))
              "query"
              [ ("file", "m.xml") ]
              r.Http.query;
            check Alcotest.string "body" "hello" r.Http.body;
            check Alcotest.(option string) "header" (Some "v") (Http.header r "x-thing")
        | rs -> Alcotest.failf "expected 1 request, got %d" (List.length rs));
    test "header lookup is case-insensitive" (fun () ->
        match decode_all "GET / HTTP/1.1\r\nX-MiXeD-CaSe: yes\r\n\r\n" with
        | [ r ] ->
            check Alcotest.(option string) "upper" (Some "yes")
              (Http.header r "X-MIXED-CASE");
            check Alcotest.(option string) "lower" (Some "yes")
              (Http.header r "x-mixed-case")
        | _ -> Alcotest.fail "one request expected");
    test "torn 1-byte reads still yield the same request" (fun () ->
        let raw = simple_post "torn body bytes" in
        let d = Http.decoder () in
        let got = ref [] in
        String.iter
          (fun c ->
            Http.feed d (String.make 1 c);
            match Http.next d with
            | `Request r -> got := r :: !got
            | `Await -> ()
            | `Error e -> failwith (Http.error_message e))
          raw;
        match (!got, decode_all raw) with
        | [ torn ], [ whole ] ->
            checkb "identical requests" (torn = whole);
            check Alcotest.string "body" "torn body bytes" torn.Http.body
        | _ -> Alcotest.fail "exactly one request expected from each decode");
    test "pipelined requests surface one at a time, in order" (fun () ->
        let raw = simple_post "first" ^ simple_post "second" ^ "GET /healthz HTTP/1.1\r\n\r\n" in
        match decode_all raw with
        | [ a; b; c ] ->
            check Alcotest.string "1st body" "first" a.Http.body;
            check Alcotest.string "2nd body" "second" b.Http.body;
            check Alcotest.string "3rd path" "/healthz" c.Http.path;
            check Alcotest.string "3rd meth" "GET" c.Http.meth
        | rs -> Alcotest.failf "expected 3 requests, got %d" (List.length rs));
    test "POST without Content-Length is 411" (fun () ->
        let d = Http.decoder () in
        Http.feed d (simple_post ~cl:false "body");
        (match Http.next d with
        | `Error `Length_required -> ()
        | _ -> Alcotest.fail "expected Length_required");
        check Alcotest.int "status" 411 (Http.error_status `Length_required));
    test "duplicate Content-Length is rejected (smuggling guard)" (fun () ->
        let d = Http.decoder () in
        Http.feed d
          "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!";
        match Http.next d with
        | `Error (`Bad_request m) -> checkb "names the header" (m = "duplicate Content-Length")
        | _ -> Alcotest.fail "expected Bad_request");
    test "declared body beyond max_body is 413 before buffering" (fun () ->
        let d = Http.decoder ~max_body:10 () in
        Http.feed d "POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n";
        match Http.next d with
        | `Error (`Payload_too_large 11) -> ()
        | _ -> Alcotest.fail "expected Payload_too_large 11");
    test "errors are sticky" (fun () ->
        let d = Http.decoder () in
        Http.feed d "NONSENSE\r\n\r\n";
        (match Http.next d with `Error _ -> () | _ -> Alcotest.fail "error expected");
        Http.feed d "GET / HTTP/1.1\r\n\r\n";
        match Http.next d with
        | `Error _ -> ()
        | _ -> Alcotest.fail "decoder must stay failed");
    test "oversized head is rejected" (fun () ->
        let d = Http.decoder ~max_header:64 () in
        Http.feed d ("GET /" ^ String.make 100 'x' ^ " HTTP/1.1\r\n");
        match Http.next d with
        | `Error (`Bad_request _) -> ()
        | _ -> Alcotest.fail "expected Bad_request on oversized head");
    test "Content-Length is ASCII digits only" (fun () ->
        List.iter
          (fun spelling ->
            let d = Http.decoder () in
            Http.feed d
              (Printf.sprintf "POST /x HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s" spelling
                 (String.make 16 'b'));
            match Http.next d with
            | `Error e -> check Alcotest.int spelling 400 (Http.error_status e)
            | _ -> Alcotest.failf "Content-Length: %s framed a request" spelling)
          [ "0x10"; "0o20"; "1_6"; "+16"; "0u16" ]);
    test "a body fed in 8 KiB reads allocates less than 10x its size" (fun () ->
        let size = 4 * 1024 * 1024 and read = 8 * 1024 in
        let body = String.make size 'b' in
        let reads = List.init (size / read) (fun i -> String.sub body (i * read) read) in
        let d = Http.decoder () in
        Http.feed d (Printf.sprintf "POST /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" size);
        let words, decoded =
          Allocation.words @@ fun () ->
          List.filter_map
            (fun chunk ->
              Http.feed d chunk;
              match Http.next d with
              | `Request r -> Some r.Http.body
              | `Await -> None
              | `Error e -> failwith (Http.error_message e))
            reads
        in
        let allocated = words *. word_bytes in
        checkb "one request with the whole body" (decoded = [ body ]);
        checkb
          (Printf.sprintf "%.0f bytes allocated for a %d-byte body" allocated size)
          (allocated < 10. *. float size));
    test "a keep-alive decoder copies each 15 KB request about once" (fun () ->
        (* 100 requests one after another on one decoder, each arriving
           in 8 KiB reads out of one reused read buffer, as the server
           feeds them. *)
        let size = 15_000 and read = 8 * 1024 and requests = 100 in
        let raw =
          Bytes.of_string
            (Printf.sprintf "POST /api/lint HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
               size (String.make size 'b'))
        in
        let d = Http.decoder () in
        let decoded = ref 0 in
        let words, () =
          Allocation.words @@ fun () ->
          for _ = 1 to requests do
            let off = ref 0 in
            while !off < Bytes.length raw do
              let n = min read (Bytes.length raw - !off) in
              Http.feed_bytes d raw !off n;
              off := !off + n;
              match Http.next d with
              | `Request r -> if String.length r.Http.body = size then incr decoded
              | `Await -> ()
              | `Error e -> failwith (Http.error_message e)
            done
          done
        in
        let per_request = words *. word_bytes /. float requests in
        check Alcotest.int "every request decoded" requests !decoded;
        checkb
          (Printf.sprintf "%.0f bytes allocated per %d-byte request" per_request
             (Bytes.length raw))
          (per_request <= 1.5 *. float (Bytes.length raw)));
    test "Http.response copies the body once" (fun () ->
        let body = String.make 15_000 'r' in
        let words, reply =
          Allocation.words (fun () ->
              Http.response
                ~headers:[ ("X-Cache", "hit"); ("X-Request-Id", "7") ]
                ~status:200 body)
        in
        let allocated = words *. word_bytes in
        checkb "ends with the body" (String.ends_with ~suffix:body reply);
        checkb
          (Printf.sprintf "%.0f bytes allocated for a %d-byte body" allocated
             (String.length body))
          (allocated <= 1.5 *. float (String.length body)));
    test "keep_alive: HTTP/1.1 persistent unless Connection: close" (fun () ->
        let r s = List.hd (decode_all s) in
        checkb "default persistent" (Http.keep_alive (r "GET / HTTP/1.1\r\n\r\n"));
        checkb "close honored"
          (not (Http.keep_alive (r "GET / HTTP/1.1\r\nConnection: close\r\n\r\n")));
        checkb "case-insensitive value"
          (not (Http.keep_alive (r "GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n"))));
    test "percent and + decoding in path and query" (fun () ->
        match decode_all "GET /a%20b?k=v%2Fw&plus=a+b HTTP/1.1\r\n\r\n" with
        | [ r ] ->
            check Alcotest.string "path" "/a b" r.Http.path;
            check Alcotest.(option string) "slash" (Some "v/w") (Http.query_param r "k");
            check Alcotest.(option string) "plus" (Some "a b") (Http.query_param r "plus")
        | _ -> Alcotest.fail "one request expected");
    test "response serialization is pinned (golden)" (fun () ->
        let got =
          Http.response
            ~headers:[ ("X-Cache", "hit") ]
            ~date:"Sun, 09 Aug 2026 12:00:00 GMT" ~status:200 "{\"ok\":true}\n"
        in
        check Alcotest.string "golden bytes" (read_file "golden/http.response.txt") got);
    test "a head fed one byte per read decodes in linear time" (fun () ->
        (* 16,218 bytes, just under the 16 KiB max_header: rescanning the
           buffered head on every next took about a second. *)
        let prefix = "GET /dribble HTTP/1.1\r\nX-Filler: " in
        let raw =
          prefix ^ String.make (16_218 - String.length prefix - 4) 'f' ^ "\r\n\r\n"
        in
        check Alcotest.int "head length" 16_218 (String.length raw);
        let d = Http.decoder () in
        let requests = ref 0 in
        let t0 = Unix.gettimeofday () in
        String.iter
          (fun c ->
            Http.feed d (String.make 1 c);
            match Http.next d with
            | `Request _ -> incr requests
            | `Await -> ()
            | `Error e -> failwith (Http.error_message e))
          raw;
        let elapsed = Unix.gettimeofday () -. t0 in
        check Alcotest.int "one request" 1 !requests;
        checkb
          (Printf.sprintf "decoded in %.1f ms" (elapsed *. 1e3))
          (elapsed < 0.1));
    test "a terminator split across reads still ends the head" (fun () ->
        List.iter
          (fun (eol, first, second) ->
            let label = Printf.sprintf "%S | %S" first second in
            let d = Http.decoder () in
            Http.feed d ("GET /split HTTP/1.1" ^ eol ^ "Host: x" ^ first);
            (match Http.next d with
            | `Await -> ()
            | _ -> Alcotest.failf "%s: the head ended before its terminator" label);
            Http.feed d second;
            match Http.next d with
            | `Request r -> check Alcotest.string label "/split" r.Http.path
            | _ -> Alcotest.failf "%s: the terminator did not end the head" label)
          [
            ("\r\n", "\r", "\n\r\n");
            ("\r\n", "\r\n", "\r\n");
            ("\r\n", "\r\n\r", "\n");
            ("\n", "\n", "\n");
          ]);
  ]

(* --- cache ----------------------------------------------------------- *)

let v body = { Cache.status = 200; content_type = "application/json"; body }

(* A key with only an id: it costs its id's length in the bound. *)
let k id = { Cache.id; options = ""; model = "" }

let cache_tests =
  [
    test "hit and miss counters" (fun () ->
        let c = Cache.create ~max_bytes:4096 in
        checkb "initial miss" (Cache.find c (k "k") = None);
        Cache.add c (k "k") (v "body");
        checkb "then hit" (Cache.find c (k "k") = Some (v "body"));
        let s = Cache.stats c in
        check Alcotest.int "hits" 1 s.Cache.hits;
        check Alcotest.int "misses" 1 s.Cache.misses;
        check Alcotest.int "entries" 1 s.Cache.entries);
    test "LRU eviction order respects recency" (fun () ->
        (* Each entry costs body + id + 64 = 100+1+64 = 165; bound to
           two entries. *)
        let c = Cache.create ~max_bytes:340 in
        Cache.add c (k "a") (v (String.make 100 'a'));
        Cache.add c (k "b") (v (String.make 100 'b'));
        check Alcotest.int "two entries held" 330 (Cache.stats c).Cache.bytes;
        ignore (Cache.find c (k "a"));
        (* "b" is now least recently used: adding "c" evicts it. *)
        Cache.add c (k "c") (v (String.make 100 'c'));
        checkb "a survives (recently used)" (Cache.find c (k "a") <> None);
        checkb "b evicted" (Cache.find c (k "b") = None);
        checkb "c present" (Cache.find c (k "c") <> None);
        check Alcotest.int "evictions" 1 (Cache.stats c).Cache.evictions);
    test "oversized value is skipped, replacement reuses the slot" (fun () ->
        let c = Cache.create ~max_bytes:200 in
        Cache.add c (k "big") (v (String.make 400 'x'));
        checkb "not stored" (Cache.find c (k "big") = None);
        Cache.add c (k "k") (v "one");
        Cache.add c (k "k") (v "two");
        checkb "replaced" (Cache.find c (k "k") = Some (v "two"));
        check Alcotest.int "one entry" 1 (Cache.stats c).Cache.entries);
    test "max_bytes <= 0 disables storage" (fun () ->
        let c = Cache.create ~max_bytes:0 in
        Cache.add c (k "k") (v "body");
        checkb "nothing stored" (Cache.find c (k "k") = None);
        Cache.add ~raw:("r", "request") c (k "k") (v "body");
        checkb "nothing stored under the raw key" (Cache.find_raw c "r" "request" = None);
        check Alcotest.int "no entries" 0 (Cache.stats c).Cache.entries);
    test "raw index: a body colliding on the raw key never gets another's reply"
      (fun () ->
        let c = Cache.create ~max_bytes:4096 in
        Cache.add ~raw:("digest", "first body") c (k "k1") (v "first reply");
        checkb "the other body misses" (Cache.find_raw c "digest" "second body" = None);
        checkb "a prefix misses" (Cache.find_raw c "digest" "first" = None);
        checkb "the stored body hits"
          (Cache.find_raw c "digest" "first body" = Some ("k1", v "first reply"));
        let s = Cache.stats c in
        check Alcotest.int "one hit" 1 s.Cache.hits;
        check Alcotest.int "one raw hit" 1 s.Cache.raw_hits;
        check Alcotest.int "raw misses count nothing" 0 s.Cache.misses;
        (* The second body fills its own entry under the same raw key:
           each body now finds only its own reply. *)
        Cache.add ~raw:("digest", "second body") c (k "k2") (v "second reply");
        checkb "the newer body hits"
          (Cache.find_raw c "digest" "second body" = Some ("k2", v "second reply"));
        checkb "the older body misses" (Cache.find_raw c "digest" "first body" = None));
    test "raw index: the request body counts against the bound" (fun () ->
        let c = Cache.create ~max_bytes:4096 in
        Cache.add c (k "k") (v "reply");
        let plain = (Cache.stats c).Cache.bytes in
        Cache.add ~raw:("raw", String.make 1000 'q') c (k "k") (v "reply");
        check Alcotest.int "body and raw key counted" (plain + 1000 + 3)
          (Cache.stats c).Cache.bytes;
        (* 100 reply + 1 id + 64 = 165 fits a 300-byte bound alone;
           with a 200-byte request and its raw key it does not. *)
        let c = Cache.create ~max_bytes:300 in
        Cache.add ~raw:("r", String.make 200 'q') c (k "k") (v (String.make 100 'a'));
        checkb "not in the canonical index" (Cache.find c (k "k") = None);
        checkb "not in the raw index" (Cache.find_raw c "r" (String.make 200 'q') = None);
        check Alcotest.int "nothing held" 0 (Cache.stats c).Cache.bytes);
    test "raw index: eviction removes an entry from both indexes" (fun () ->
        (* Each entry costs 100 + 1 + 64 + 10 + 2 = 177: room for two. *)
        let c = Cache.create ~max_bytes:400 in
        let request k = String.make 10 k in
        Cache.add ~raw:("ra", request 'a') c (k "a") (v (String.make 100 'a'));
        Cache.add ~raw:("rb", request 'b') c (k "b") (v (String.make 100 'b'));
        check Alcotest.int "two entries held" 354 (Cache.stats c).Cache.bytes;
        Cache.add ~raw:("rc", request 'c') c (k "c") (v (String.make 100 'c'));
        check Alcotest.int "one eviction" 1 (Cache.stats c).Cache.evictions;
        checkb "a gone from the raw index" (Cache.find_raw c "ra" (request 'a') = None);
        checkb "a gone from the canonical index" (Cache.find c (k "a") = None);
        checkb "b still raw" (Cache.find_raw c "rb" (request 'b') <> None);
        checkb "c still raw" (Cache.find_raw c "rc" (request 'c') <> None);
        check Alcotest.int "two entries" 2 (Cache.stats c).Cache.entries);
    test "a primed raw lookup of a 15 KB body allocates under 1,000 words" (fun () ->
        let body = String.init 15_000 (fun i -> Char.chr (32 + (i mod 90))) in
        let opts = Api.default_options in
        let c = Cache.create ~max_bytes:(1024 * 1024) in
        Cache.add ~raw:(Api.raw_key Api.Lint opts body, body) c (k "key") (v "reply");
        let probe = Bytes.to_string (Bytes.of_string body) in
        let words, found =
          Allocation.words (fun () ->
              Cache.find_raw c (Api.raw_key Api.Lint opts probe) probe)
        in
        checkb "hit" (found = Some ("key", v "reply"));
        checkb (Printf.sprintf "%.0f words allocated" words) (words < 1000.));
    test "two keys with one id answer only their own reply" (fun () ->
        let key endpoint xmi =
          Api.cache_key endpoint Api.default_options (U.Xmi.of_string (Lazy.force xmi))
        in
        let first = key Api.Lint didactic_xmi in
        let other_model = { (key Api.Lint crane_xmi) with Cache.id = first.Cache.id } in
        let other_options =
          { (key Api.Transform didactic_xmi) with Cache.id = first.Cache.id }
        in
        checkb "the forgeries differ from the first key in their material"
          (other_model.Cache.model <> first.Cache.model
          && other_options.Cache.options <> first.Cache.options);
        let c = Cache.create ~max_bytes:(1024 * 1024) in
        Cache.add c first (v "first reply");
        checkb "another model under the id misses" (Cache.find c other_model = None);
        checkb "other options under the id miss" (Cache.find c other_options = None);
        checkb "the first key still hits" (Cache.find c first = Some (v "first reply"));
        let s = Cache.stats c in
        check Alcotest.int "two misses" 2 s.Cache.misses;
        check Alcotest.int "one hit" 1 s.Cache.hits);
    test "an entry counts its key's model bytes and its body once each" (fun () ->
        let o = Api.default_options in
        let xmi = Lazy.force didactic_xmi in
        let uml = U.Xmi.of_string xmi in
        let key = Api.cache_key Api.Lint o uml in
        check Alcotest.string "the key holds the model's bytes"
          (Marshal.to_string uml [ Marshal.No_sharing ])
          key.Cache.model;
        checkb "the model bytes are fewer than its XMI"
          (String.length key.Cache.model < String.length xmi);
        let entry =
          String.length "reply" + String.length key.Cache.id
          + String.length key.Cache.options + String.length key.Cache.model + 64
        in
        let held body =
          let c = Cache.create ~max_bytes:(1024 * 1024) in
          let raw = Api.raw_key Api.Lint o body in
          Cache.add ~raw:(raw, body) c key (v "reply");
          ((Cache.stats c).Cache.bytes, entry + String.length raw + String.length body)
        in
        let bytes, expected = held xmi in
        check Alcotest.int "a canonical body" expected bytes;
        let bytes, expected = held (replace_all ~sub:"\n" ~by:"\n  " xmi) in
        check Alcotest.int "a re-indented body" expected bytes;
        let c = Cache.create ~max_bytes:(1024 * 1024) in
        Cache.add c key (v "reply");
        check Alcotest.int "no body: the key alone" entry (Cache.stats c).Cache.bytes);
    test "whitespace variants fit at least four fifths of the entries canonical bodies fit"
      (fun () ->
        (* Edit traffic at one bound: distinct models, lint and
           transform alternating, with real replies.  Every entry holds
           its key's model bytes, so a re-indented body costs only the
           whitespace it adds. *)
        let o = Api.default_options in
        let fill variant =
          let c = Cache.create ~max_bytes:(256 * 1024) in
          for i = 0 to 39 do
            let endpoint = if i land 1 = 0 then Api.Lint else Api.Transform in
            let model =
              CS.Random_models.pipeline ~seed:i ~threads:(4 + (i mod 8)) ~extra_edges:1
            in
            let body = variant (U.Xmi.to_string model) in
            let uml = U.Xmi.of_string body in
            let r = Api.run endpoint o uml in
            Cache.add
              ~raw:(Api.raw_key endpoint o body, body)
              c (Api.cache_key endpoint o uml)
              {
                Cache.status = r.Api.status;
                content_type = r.Api.content_type;
                body = r.Api.body;
              }
          done;
          Cache.stats c
        in
        let canonical = fill Fun.id and variant = fill (replace_all ~sub:"\n" ~by:"\n  ") in
        checkb "both fills evict" (canonical.Cache.evictions > 0 && variant.Cache.evictions > 0);
        checkb
          (Printf.sprintf "%d variant entries against %d canonical" variant.Cache.entries
             canonical.Cache.entries)
          (variant.Cache.entries < canonical.Cache.entries
          && 5 * variant.Cache.entries >= 4 * canonical.Cache.entries));
  ]

(* --- api options and cache key --------------------------------------- *)

let api_tests =
  [
    test "options_of_query: defaults and the CLI vocabulary" (fun () ->
        checkb "empty = defaults" (Api.options_of_query [] = Ok Api.default_options);
        (match Api.options_of_query [ ("strategy", "linear"); ("rounds", "42") ] with
        | Ok o ->
            checkb "linear" (o.Api.strategy = Core.Flow.Infer_linear);
            check Alcotest.int "rounds" 42 o.Api.rounds
        | Error e -> Alcotest.fail e);
        (match Api.options_of_query [ ("strategy", "linear"); ("cpus", "3") ] with
        | Ok o -> checkb "cpus wins" (o.Api.strategy = Core.Flow.Infer_bounded 3)
        | Error e -> Alcotest.fail e);
        (match Api.options_of_query [ ("engine", "compiled") ] with
        | Ok o ->
            checkb "compiled" (o.Api.engine = `Compiled);
            checkb "given" o.Api.engine_given
        | Error e -> Alcotest.fail e);
        checkb "no engine given by default" (not Api.default_options.Api.engine_given);
        checkb "rounds 0 rejected" (Result.is_error (Api.options_of_query [ ("rounds", "0") ]));
        checkb "rounds huge rejected"
          (Result.is_error (Api.options_of_query [ ("rounds", "1000000") ]));
        checkb "unknown key rejected"
          (Result.is_error (Api.options_of_query [ ("typo", "1") ])));
    test "a passed deadline stops every endpoint after the flow" (fun () ->
        let uml = CS.Didactic.model () in
        List.iter
          (fun e ->
            match Api.run ~deadline:0. e Api.default_options uml with
            | exception Api.Timeout -> ()
            | _ -> Alcotest.failf "%s ran past its deadline" (Api.endpoint_name e))
          Api.all_endpoints);
    test "endpoint_of_path covers exactly the published routes" (fun () ->
        checkb "lint" (Api.endpoint_of_path "/api/lint" = Some Api.Lint);
        checkb "generate/c" (Api.endpoint_of_path "/api/generate/c" = Some (Api.Generate `C));
        checkb "unknown" (Api.endpoint_of_path "/api/nope" = None);
        check Alcotest.int "route count" 7 (List.length Api.all_endpoints));
    test "cache key: whitespace-insensitive in the model, sensitive to options"
      (fun () ->
        let xmi = Lazy.force didactic_xmi in
        let reparsed =
          U.Xmi.to_string (U.Xmi.of_string xmi)
          (* identical canonical bytes *)
        in
        let m1 = U.Xmi.of_string xmi and m2 = U.Xmi.of_string reparsed in
        let o = Api.default_options in
        let id e o m = (Api.cache_key e o m).Cache.id in
        check Alcotest.string "same model, same key" (id Api.Lint o m1) (id Api.Lint o m2);
        checkb "endpoint changes the key" (id Api.Lint o m1 <> id Api.Transform o m1);
        checkb "rounds change the key"
          (id Api.Simulate o m1 <> id Api.Simulate { o with Api.rounds = 11 } m1);
        checkb "strategy changes the key"
          (id Api.Lint o m1
          <> id Api.Lint { o with Api.strategy = Core.Flow.Infer_linear } m1);
        checkb "different models differ"
          (id Api.Lint o m1 <> id Api.Lint o (U.Xmi.of_string (Lazy.force crane_xmi)));
        (* Each endpoint's key holds only the options it reads. *)
        let key e query =
          match Api.options_of_query query with
          | Ok o -> id e o m1
          | Error msg -> Alcotest.fail msg
        in
        let same what e q = check Alcotest.string what (key e []) (key e q) in
        same "lint ignores rounds" Api.Lint [ ("rounds", "3") ];
        same "lint ignores engine and backends" Api.Lint
          [ ("engine", "seq"); ("backends", "seq") ];
        same "transform ignores rounds, engine, backends and file" Api.Transform
          [ ("rounds", "3"); ("engine", "seq"); ("backends", "seq"); ("file", "m.xml") ];
        same "simulate: no engine is engine=compiled" Api.Simulate
          [ ("engine", "compiled") ];
        same "simulate ignores backends and file" Api.Simulate
          [ ("backends", "seq"); ("file", "m.xml") ];
        same "conform: no engine is engine=seq" Api.Conform [ ("engine", "seq") ];
        same "conform ignores file" Api.Conform [ ("file", "m.xml") ];
        same "generate ignores engine, backends and file" (Api.Generate `C)
          [ ("engine", "seq"); ("backends", "seq"); ("file", "m.xml") ];
        let differs what e q = checkb what (key e [] <> key e q) in
        differs "engine=seq changes the simulate key" Api.Simulate [ ("engine", "seq") ];
        differs "engine=compiled changes the conform key" Api.Conform
          [ ("engine", "compiled") ];
        differs "file changes the lint key" Api.Lint [ ("file", "m.xml") ];
        differs "backends change the conform key" Api.Conform [ ("backends", "seq") ];
        differs "rounds change the generate key" (Api.Generate `Java) [ ("rounds", "3") ]);
    test "raw key: equal exactly when the cache keys are" (fun () ->
        (* Every option the whitespace test varies, plus the bounded
           strategies and trace, on every endpoint. *)
        let queries =
          [
            [];
            [ ("rounds", "3") ];
            [ ("rounds", "11") ];
            [ ("engine", "seq") ];
            [ ("engine", "compiled") ];
            [ ("backends", "seq") ];
            [ ("file", "m.xml") ];
            [ ("engine", "seq"); ("backends", "seq") ];
            [ ("rounds", "3"); ("engine", "seq"); ("backends", "seq"); ("file", "m.xml") ];
            [ ("strategy", "linear") ];
            [ ("strategy", "deployment") ];
            [ ("cpus", "2") ];
            [ ("cpus", "3") ];
            [ ("strategy", "linear"); ("cpus", "2") ];
            [ ("trace", "1") ];
          ]
        in
        let xmi = Lazy.force didactic_xmi in
        let uml = U.Xmi.of_string xmi in
        let keys =
          List.concat_map
            (fun e ->
              List.map
                (fun q ->
                  match Api.options_of_query q with
                  | Ok o -> ((Api.cache_key e o uml).Cache.id, Api.raw_key e o xmi)
                  | Error msg -> Alcotest.fail msg)
                queries)
            Api.all_endpoints
        in
        List.iter
          (fun (canonical1, raw1) ->
            List.iter
              (fun (canonical2, raw2) ->
                check Alcotest.bool
                  (Printf.sprintf "raw keys agree with %s vs %s" canonical1 canonical2)
                  (canonical1 = canonical2) (raw1 = raw2))
              keys)
          keys;
        checkb "the body changes the raw key"
          (Api.raw_key Api.Lint Api.default_options xmi
          <> Api.raw_key Api.Lint Api.default_options (xmi ^ " ")));
    test "served simulate runs the compiled plan and matches the oracle" (fun () ->
        let models =
          [
            ("pipeline", R.pipeline ~seed:5 ~threads:4 ~extra_edges:2);
            ("wide", R.wide ~seed:5 ~branches:3 ~depth:2);
            ("monolithic", R.monolithic ~seed:5 ~calls:6);
            ("cyclic", R.cyclic ~seed:5 ~stages:2);
            ("multi-cpu", R.multi_cpu ~seed:5 ~threads:4 ~cpus:2 ~extra_edges:1);
            ("chatty", R.chatty ~seed:5 ~threads:3 ~width:3);
          ]
        in
        List.iter
          (fun (shape, uml) ->
            (* The body and the journal kinds of one request, in a
               context of its own as the server gives each miss. *)
            let serve query =
              let opts =
                match Api.options_of_query query with
                | Ok o -> o
                | Error msg -> Alcotest.fail msg
              in
              let ctx = Obs.Context.create () in
              let o = Obs.Context.with_current ctx (fun () -> Api.run Api.Simulate opts uml) in
              check Alcotest.int (shape ^ " status") 200 o.Api.status;
              ( o.Api.body,
                List.map
                  (fun (e : Obs.Journal.entry) -> e.Obs.Journal.j_kind)
                  (Obs.Journal.entries_in ctx.Obs.Context.journal) )
            in
            let default, default_kinds = serve [] in
            let compiled, _ = serve [ ("engine", "compiled") ] in
            let seq, seq_kinds = serve [ ("engine", "seq") ] in
            check Alcotest.string (shape ^ ": default body = engine=compiled body") compiled
              default;
            check Alcotest.string (shape ^ ": engine=seq differs only in the engine member")
              default
              (replace_all ~sub:"\"engine\":\"seq\"" ~by:"\"engine\":\"compiled\"" seq);
            checkb (shape ^ ": default journals compiled.run")
              (List.mem "compiled.run" default_kinds && not (List.mem "exec.run" default_kinds));
            checkb (shape ^ ": engine=seq journals exec.run")
              (List.mem "exec.run" seq_kinds && not (List.mem "compiled.run" seq_kinds));
            (* The default body's traces and firings are the oracle's,
               as the wire renders them. *)
            let oracle =
              Umlfront_dataflow.Exec.run ~rounds:Api.default_options.Api.rounds
                (Umlfront_dataflow.Sdf.of_model (Core.Flow.run uml).Core.Flow.caam)
            in
            let rendered json = Json.parse_exn (Json.to_string json) in
            let body = Json.parse_exn default in
            checkb (shape ^ ": traces are Exec.run's")
              (Json.member "traces" body
              = Some
                  (rendered
                     (Json.List
                        (List.map
                           (fun (port, samples) ->
                             Json.Obj
                               [
                                 ("port", Json.String port);
                                 ( "samples",
                                   Json.List
                                     (Array.to_list (Array.map (fun v -> Json.Float v) samples))
                                 );
                               ])
                           oracle.Umlfront_dataflow.Exec.traces))));
            checkb (shape ^ ": firings are Exec.run's")
              (Json.member "firings" body
              = Some
                  (rendered
                     (Json.Obj
                        (List.map
                           (fun (actor, n) -> (actor, Json.Int n))
                           oracle.Umlfront_dataflow.Exec.firings)))))
          models);
  ]

(* --- JSON round-trips ------------------------------------------------ *)

let roundtrip_tests =
  [
    test "Diagnostic.of_json inverts to_json" (fun () ->
        let ds =
          [
            A.Diagnostic.error ~code:"UF901" ~path:[ "request"; "body" ]
              ~hint:"POST XMI" "malformed";
            A.Diagnostic.warning ~code:"UF104" ~path:[ "top"; "ch" ] "protocol";
            A.Diagnostic.make A.Diagnostic.Info ~code:"UF001" ~path:[] "note";
          ]
        in
        List.iter
          (fun d ->
            match A.Diagnostic.of_json (A.Diagnostic.to_json d) with
            | Ok d' -> checkb "round-trips" (d = d')
            | Error e -> Alcotest.fail e)
          ds;
        match A.Diagnostic.list_of_json (A.Diagnostic.list_to_json ~file:"m.xml" ds) with
        | Ok (file, ds') ->
            check Alcotest.(option string) "file" (Some "m.xml") file;
            checkb "list round-trips" (ds = ds')
        | Error e -> Alcotest.fail e);
    test "Diagnostic round-trips through printed bytes" (fun () ->
        let ds = [ A.Diagnostic.error ~code:"UF902" ~path:[ "flow" ] "rejected" ] in
        let bytes = Json.to_string (A.Diagnostic.list_to_json ds) in
        match Json.parse bytes with
        | Error e -> Alcotest.fail e
        | Ok json -> (
            match A.Diagnostic.list_of_json json with
            | Ok (None, ds') -> checkb "same diagnostics" (ds = ds')
            | Ok (Some _, _) -> Alcotest.fail "no file expected"
            | Error e -> Alcotest.fail e));
    test "Conform.report_of_json inverts to_json (synthetic verdicts)" (fun () ->
        let report =
          {
            Conf.model_name = "m";
            rounds = 7;
            outputs = [ "Out1"; "Out2" ];
            verdicts =
              [
                (Conf.Seq, Conf.Agree);
                ( Conf.Compiled_exec,
                  Conf.Disagree
                    (Conf.Trace
                       {
                         round = 3;
                         port = "Out1";
                         expected = 1.5;
                         actual = 2.25;
                         provenance =
                           Some
                             {
                               Conf.prov_block = "B";
                               prov_firing = 4;
                               prov_channel = "A/o->B/i";
                               prov_protocols = [ "HSFIFO" ];
                             };
                       }) );
                (Conf.Kpn, Conf.Disagree (Conf.Crash "deadlock"));
                (Conf.Kpn_src, Conf.Disagree (Conf.Structure "missing filter"));
                (Conf.C, Conf.Backend_unavailable "no cc");
              ];
          }
        in
        let bytes = Json.to_string (Conf.to_json report) in
        match Json.parse bytes with
        | Error e -> Alcotest.fail e
        | Ok json -> (
            match Conf.report_of_json json with
            | Ok r -> checkb "report round-trips" (r = report)
            | Error e -> Alcotest.fail e));
    test "Conform round-trip on a real check" (fun () ->
        let caam = (Core.Flow.run (CS.Didactic.model ())).Core.Flow.caam in
        let report =
          Conf.check ~backends:[ Conf.Seq; Conf.Compiled_exec ] ~rounds:5 caam
        in
        match Json.parse (Json.to_string (Conf.to_json report)) with
        | Error e -> Alcotest.fail e
        | Ok json -> (
            match Conf.report_of_json json with
            | Ok r -> checkb "round-trips" (r = report)
            | Error e -> Alcotest.fail e));
  ]

(* --- live server helpers --------------------------------------------- *)

let with_server ?(config = Server.default_config) f =
  let server = Server.start ~config:{ config with Server.port = 0 } () in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let post server target body = Client.post ~port:(Server.port server) target body
let get server target = Client.get ~port:(Server.port server) target

let exe = Filename.concat ".." (Filename.concat "bin" "umlfront.exe")

let run_cli args =
  let out = Filename.temp_file "umlfront_serve" ".out" in
  let code = Sys.command (Printf.sprintf "%s %s >%s 2>/dev/null" exe args out) in
  let s = read_file out in
  Sys.remove out;
  (code, s)

let save_xmi xmi =
  let file = Filename.temp_file "umlfront_serve" ".xml" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc xmi);
  file

let metrics_counter body name =
  let needle = name ^ " " in
  let rec scan = function
    | [] -> None
    | line :: rest ->
        if String.length line > String.length needle
           && String.sub line 0 (String.length needle) = needle
        then
          int_of_string_opt
            (String.trim
               (String.sub line (String.length needle)
                  (String.length line - String.length needle)))
        else scan rest
  in
  scan (String.split_on_char '\n' body)

(* --- e2e: endpoints, parity, failure paths --------------------------- *)

let e2e_tests =
  [
    test "healthz, metrics and journal answer" (fun () ->
        with_server @@ fun s ->
        let h = get s "/healthz" in
        check Alcotest.int "healthz 200" 200 h.Client.status;
        checkb "says ok" (Astring_contains.contains h.Client.body "\"status\":\"ok\"");
        let m = get s "/metrics" in
        check Alcotest.int "metrics 200" 200 m.Client.status;
        checkb "openmetrics ends with EOF"
          (Astring_contains.contains m.Client.body "# EOF");
        let j = get s "/journal" in
        check Alcotest.int "journal 200" 200 j.Client.status;
        checkb "journal is JSON" (Result.is_ok (Json.parse j.Client.body)));
    test "a miss journals into a full root journal" (fun () ->
        with_server @@ fun s ->
        (* Let the daemon age, then fill its journal: the request's
           entries must displace the oldest filler, whatever the age. *)
        Unix.sleepf 0.05;
        let journal = (Server.root s).Obs.Context.journal in
        for _ = 1 to Obs.Journal.default_capacity do
          Obs.Journal.record_in journal "test.filler"
        done;
        let r = post s "/api/lint" (Lazy.force didactic_xmi) in
        check Alcotest.(option string) "a miss" (Some "miss") (Client.header r "x-cache");
        let id = int_of_string (Option.get (Client.request_id r)) in
        let entries = Json.items (Json.parse_exn (get s "/journal").Client.body) in
        let has kind pred =
          List.exists
            (fun e -> Json.member "kind" e = Some (Json.String kind) && pred e)
            entries
        in
        checkb "serve.request entry of this request"
          (has "serve.request" (fun e ->
               Option.bind (Json.member "fields" e) (Json.member "request")
               = Some (Json.Int id)));
        checkb "flow.run entry" (has "flow.run" (fun _ -> true)));
    test "every compute endpoint answers 200 with the promised members" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let expect target members =
          let r = post s target xmi in
          check Alcotest.int (target ^ " status") 200 r.Client.status;
          List.iter
            (fun m ->
              checkb (target ^ " has " ^ m) (Astring_contains.contains r.Client.body m))
            members
        in
        expect "/api/lint" [ "\"diagnostics\"" ];
        expect "/api/transform"
          [ "\"allocation\""; "\"intra_channels\""; "\"mdl\""; "\"broken_cycles\"" ];
        expect "/api/simulate?rounds=5"
          [ "\"traces\""; "\"firings\""; "\"rounds\":5"; "\"engine\":\"compiled\"" ];
        expect "/api/simulate?rounds=5&engine=seq" [ "\"engine\":\"seq\"" ];
        expect "/api/conform?backends=seq,compiled&rounds=5"
          [ "\"verdicts\""; "\"agree\"" ];
        expect "/api/generate/c" [ "\"language\":\"c\""; "\"files\"" ];
        expect "/api/generate/java" [ "\"language\":\"java\""; "GeneratedModel.java" ];
        expect "/api/generate/kpn" [ "\"language\":\"kpn\""; "model_kpn.ml" ]);
    test "/metrics counts every round of the served executors" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let miss target =
          let r = post s target xmi in
          check Alcotest.(option string) (target ^ " misses") (Some "miss")
            (Client.header r "x-cache")
        in
        List.iter
          (fun engine ->
            List.iter
              (fun n -> miss (Printf.sprintf "/api/simulate?rounds=%d%s" n engine))
              [ 3; 7; 11 ])
          [ ""; "&engine=seq" ];
        miss "/api/conform?backends=seq,compiled&rounds=5";
        let m = (get s "/metrics").Client.body in
        (* The compiled plan runs each default simulate and conform's
           compiled backend; Exec.run each engine=seq simulate, and
           conform's reference and its seq backend. *)
        check Alcotest.(option int) "compiled rounds" (Some (3 + 7 + 11 + 5))
          (metrics_counter m "umlfront_compiled_round_us_count");
        check Alcotest.(option int) "sequential rounds" (Some (3 + 7 + 11 + 5 + 5))
          (metrics_counter m "umlfront_exec_round_us_count"));
    test "lint body is byte-identical to `umlfront lint --format json`" (fun () ->
        with_server @@ fun s ->
        List.iter
          (fun xmi ->
            let file = save_xmi xmi in
            let code, cli = run_cli ("lint --format json " ^ Filename.quote file) in
            check Alcotest.int "cli exits 0" 0 code;
            let r = post s ("/api/lint?file=" ^ file) xmi in
            Sys.remove file;
            check Alcotest.int "200" 200 r.Client.status;
            check Alcotest.string "identical bytes" cli r.Client.body)
          [ Lazy.force didactic_xmi; Lazy.force crane_xmi ]);
    test "conform body is byte-identical to `umlfront conform --format json`"
      (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let file = save_xmi xmi in
        let code, cli =
          run_cli
            ("conform --format json --backends seq,compiled --rounds 5 "
           ^ Filename.quote file)
        in
        Sys.remove file;
        check Alcotest.int "cli exits 0" 0 code;
        let r = post s "/api/conform?backends=seq,compiled&rounds=5" xmi in
        check Alcotest.int "200" 200 r.Client.status;
        check Alcotest.string "identical bytes" cli r.Client.body);
    test "malformed XMI is 422 with a UF901 diagnostic body" (fun () ->
        with_server @@ fun s ->
        let r = post s "/api/lint" "<uml:Model" in
        check Alcotest.int "422" 422 r.Client.status;
        match Json.parse r.Client.body with
        | Error e -> Alcotest.fail e
        | Ok (Json.List [ entry ]) -> (
            match A.Diagnostic.list_of_json entry with
            | Ok (None, [ d ]) ->
                check Alcotest.string "code" "UF901" d.A.Diagnostic.code;
                checkb "severity error" (d.A.Diagnostic.severity = A.Diagnostic.Error);
                checkb "hint present" (d.A.Diagnostic.hint <> None)
            | Ok _ -> Alcotest.fail "exactly one diagnostic expected"
            | Error e -> Alcotest.fail e)
        | Ok _ -> Alcotest.fail "a one-element JSON list expected");
    test "a model the flow rejects is 422 with a UF902 diagnostic" (fun () ->
        with_server @@ fun s ->
        (* Use_deployment on a model with no deployment diagram. *)
        let xmi = U.Xmi.to_string (CS.Mjpeg_system.model ()) in
        let r = post s "/api/transform?strategy=deployment" xmi in
        check Alcotest.int "422" 422 r.Client.status;
        checkb "UF902" (Astring_contains.contains r.Client.body "UF902"));
    test "unknown routes are 404, wrong methods 405 with Allow" (fun () ->
        with_server @@ fun s ->
        check Alcotest.int "404" 404 (get s "/api/nope").Client.status;
        check Alcotest.int "404 root" 404 (get s "/").Client.status;
        let r = get s "/api/lint" in
        check Alcotest.int "405" 405 r.Client.status;
        check Alcotest.(option string) "Allow" (Some "POST") (Client.header r "allow");
        let r = post s "/healthz" "x" in
        check Alcotest.int "405 healthz" 405 r.Client.status;
        (* No live stream, dashboard or rolling-window snapshot is served. *)
        List.iter
          (fun path ->
            check Alcotest.int ("GET " ^ path) 404 (get s path).Client.status;
            check Alcotest.int ("POST " ^ path) 404 (post s path "x").Client.status)
          [ "/events"; "/dashboard"; "/api/windows" ]);
    test "bad query parameters are 400" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        check Alcotest.int "unknown key" 400 (post s "/api/lint?typo=1" xmi).Client.status;
        check Alcotest.int "bad rounds" 400
          (post s "/api/simulate?rounds=zero" xmi).Client.status;
        check Alcotest.int "bad engine" 400
          (post s "/api/simulate?engine=warp" xmi).Client.status);
    test "backends=par is 400 over HTTP and exit 124 on the CLI" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let r = post s "/api/conform?backends=par" xmi in
        check Alcotest.int "400" 400 r.Client.status;
        List.iter
          (fun b ->
            checkb ("body names " ^ b) (Astring_contains.contains r.Client.body b))
          [ "seq"; "compiled"; "kpn"; "kpn-src" ];
        let file = save_xmi xmi in
        let code, _ = run_cli ("conform --backends par " ^ Filename.quote file) in
        Sys.remove file;
        check Alcotest.int "cli exits 124" 124 code);
    test "oversized request body is 413" (fun () ->
        with_server
          ~config:{ Server.default_config with Server.max_body = 1024 }
        @@ fun s ->
        let r = post s "/api/lint" (String.make 2048 'x') in
        check Alcotest.int "413" 413 r.Client.status);
    test "identical requests hit the cache; options changes miss" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let a = post s "/api/simulate?rounds=5" xmi in
        check Alcotest.(option string) "first is a miss" (Some "miss")
          (Client.header a "x-cache");
        let b = post s "/api/simulate?rounds=5" xmi in
        check Alcotest.(option string) "second is a hit" (Some "hit")
          (Client.header b "x-cache");
        check Alcotest.string "identical bytes" a.Client.body b.Client.body;
        check Alcotest.int "found by its raw bytes" 1 (Server.cache_stats s).Cache.raw_hits;
        let c = post s "/api/simulate?rounds=6" xmi in
        check Alcotest.(option string) "changed rounds misses" (Some "miss")
          (Client.header c "x-cache");
        let m = (get s "/metrics").Client.body in
        checkb "hit counted in /metrics"
          (Astring_contains.contains m "umlfront_serve_cache_hit_total 1"));
    test "a whitespace variant hits the canonical entry with the same body" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let variant = replace_all ~sub:"\n" ~by:"\n  " xmi in
        let a = post s "/api/lint" xmi in
        check Alcotest.(option string) "original misses" (Some "miss")
          (Client.header a "x-cache");
        List.iter
          (fun what ->
            let b = post s "/api/lint" variant in
            check Alcotest.(option string) (what ^ " hits") (Some "hit")
              (Client.header b "x-cache");
            check Alcotest.string (what ^ ": identical body") a.Client.body b.Client.body)
          [ "the variant"; "the variant again" ];
        (* Only the body that filled the entry is in the raw index. *)
        let c = Server.cache_stats s in
        check Alcotest.int "hits" 2 c.Cache.hits;
        check Alcotest.int "none by raw bytes" 0 c.Cache.raw_hits;
        check Alcotest.int "one entry" 1 c.Cache.entries);
    test "a raw hit counts once and logs the miss's canonical key" (fun () ->
        let path = Filename.temp_file "umlfront_access" ".jsonl" in
        Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        let xmi = Lazy.force didactic_xmi in
        let variant = replace_all ~sub:"\n " ~by:"\n\t" xmi in
        let sent = [ xmi; xmi; variant; xmi ] in
        (with_server
           ~config:{ Server.default_config with Server.access_log = Some path }
        @@ fun s ->
         let caches =
           List.map (fun body -> Client.header (post s "/api/lint" body) "x-cache") sent
         in
         check
           Alcotest.(list (option string))
           "miss, raw hit, canonical hit, raw hit"
           [ Some "miss"; Some "hit"; Some "hit"; Some "hit" ]
           caches;
         check Alcotest.int "two raw hits" 2 (Server.cache_stats s).Cache.raw_hits;
         (* Counters are bumped after each reply is sent: wait for the
            last request's to land. *)
         let rec totals n =
           let m = (get s "/metrics").Client.body in
           let hit = metrics_counter m "umlfront_serve_cache_hit_total"
           and miss = metrics_counter m "umlfront_serve_cache_miss_total" in
           match (hit, miss) with
           | Some h, Some m when h + m = List.length sent || n = 0 -> (h, m)
           | _ ->
               Unix.sleepf 0.01;
               totals (n - 1)
         in
         let hit, miss = totals 200 in
         check Alcotest.int "hits" 3 hit;
         check Alcotest.int "misses" 1 miss);
        let key =
          (Api.cache_key Api.Lint Api.default_options (U.Xmi.of_string xmi)).Cache.id
        in
        check Alcotest.int "the key id is 32 hex digits" 32 (String.length key);
        let models =
          read_file path |> String.split_on_char '\n'
          |> List.filter_map (fun line ->
                 if line = "" then None
                 else
                   let doc = Json.parse_exn line in
                   if Json.member "endpoint" doc = Some (Json.String "/api/lint") then
                     Some (Json.member "model" doc)
                   else None)
        in
        check Alcotest.int "one line per compute request" (List.length sent)
          (List.length models);
        List.iter
          (fun model ->
            checkb "model is the canonical key" (model = Some (Json.String key)))
          models);
    test "/metrics families do not grow with the actor names executed" (fun () ->
        with_server @@ fun s ->
        let families () =
          List.sort_uniq compare
            (List.filter_map
               (fun line ->
                 match String.split_on_char ' ' line with
                 | "#" :: "TYPE" :: name :: _ -> Some name
                 | _ -> None)
               (String.split_on_char '\n' (get s "/metrics").Client.body))
        in
        (* Both executors: conform's seq reference and seq backend, and
           simulate on the oracle. *)
        let execute xmi =
          List.iter
            (fun target -> check Alcotest.int target 200 (post s target xmi).Client.status)
            [ "/api/conform?backends=seq&rounds=3"; "/api/simulate?engine=seq&rounds=3" ]
        in
        let crane = Lazy.force crane_xmi in
        (* A scrape counts itself, as the first /api-less request. *)
        ignore (families ());
        execute crane;
        let before = families () in
        for i = 1 to 10 do
          execute (replace_all ~sub:"Tcontrol" ~by:(Printf.sprintf "Tc%d" i) crane)
        done;
        check Alcotest.(list string) "same families" before (families ()));
    test "overload answers 503 with Retry-After, then recovers" (fun () ->
        with_server
          ~config:
            {
              Server.default_config with
              Server.pool = 1;
              max_inflight = 2;
              timeout_s = 5.;
            }
        @@ fun s ->
        let open_conn () =
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port s));
          fd
        in
        let held = [ open_conn (); open_conn () ] in
        (* Wait until the acceptor has admitted both idle connections. *)
        let rec wait n =
          if Server.inflight s < 2 && n > 0 then (
            Unix.sleepf 0.01;
            wait (n - 1))
        in
        wait 500;
        check Alcotest.int "both admitted" 2 (Server.inflight s);
        let r = get s "/healthz" in
        check Alcotest.int "503" 503 r.Client.status;
        check Alcotest.(option string) "Retry-After" (Some "1")
          (Client.header r "retry-after");
        List.iter Unix.close held;
        let rec drain n =
          if Server.inflight s > 0 && n > 0 then (
            Unix.sleepf 0.01;
            drain (n - 1))
        in
        drain 500;
        check Alcotest.int "recovered" 200 (get s "/healthz").Client.status);
    test "pipelined requests on one raw socket are answered in order" (fun () ->
        with_server @@ fun s ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port s));
        let xmi = Lazy.force didactic_xmi in
        let one target ~last =
          Printf.sprintf "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n%s\r\n%s"
            target (String.length xmi)
            (if last then "Connection: close\r\n" else "")
            xmi
        in
        let raw = one "/api/lint" ~last:false ^ one "/api/transform" ~last:true in
        let rec send off =
          if off < String.length raw then
            send (off + Unix.write_substring fd raw off (String.length raw - off))
        in
        send 0;
        let buf = Bytes.create 65536 in
        let acc = Buffer.create 65536 in
        let rec read_all () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes acc buf 0 n;
              read_all ()
        in
        read_all ();
        let all = Buffer.contents acc in
        let first_at = Astring_contains.find all "\"diagnostics\"" in
        let second_at = Astring_contains.find all "\"allocation\"" in
        checkb "both responses present" (first_at >= 0 && second_at >= 0);
        checkb "lint answered before transform" (first_at < second_at);
        checkb "two status lines"
          (Astring_contains.count all "HTTP/1.1 200 OK" = 2));
    test "stop does not wait out an idle keep-alive connection" (fun () ->
        List.iter
          (fun pool ->
            with_server ~config:{ Server.default_config with Server.pool }
            @@ fun s ->
            let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            @@ fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port s));
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
            let head = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
            ignore (Unix.write_substring fd head 0 (String.length head));
            (* Read the whole reply and leave the connection open, idle. *)
            let buf = Bytes.create 4096 and acc = Buffer.create 512 in
            while not (Astring_contains.contains (Buffer.contents acc) "}\n") do
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then Alcotest.fail "connection closed before the reply";
              Buffer.add_subbytes acc buf 0 n
            done;
            checkb "healthz answered, connection kept alive"
              (Astring_contains.contains (Buffer.contents acc) "HTTP/1.1 200 OK"
              && not (Astring_contains.contains (Buffer.contents acc) "Connection: close"));
            let t0 = Unix.gettimeofday () in
            Server.stop s;
            let took = Unix.gettimeofday () -. t0 in
            checkb
              (Printf.sprintf "--pool %d: stop returned in %.2f s, under 1 s" pool took)
              (took < 1.0);
            check Alcotest.int "the daemon closed the idle connection" 0
              (try Unix.read fd buf 0 (Bytes.length buf)
               with Unix.Unix_error _ -> -1))
          [ 2; 0 ]);
    test "a malformed statechart is 422 UF902 on every endpoint and fails the CLI lint"
      (fun () ->
        with_server @@ fun s ->
        let empty = U.Statechart.make "S" [] [] in
        let xmi =
          U.Xmi.to_string { (CS.Didactic.model ()) with U.Model.statecharts = [ empty ] }
        in
        let rejected = (post s "/api/transform" xmi).Client.body in
        checkb "UF902" (Astring_contains.contains rejected "UF902");
        List.iter
          (fun endpoint ->
            let target = "/api/" ^ Api.endpoint_name endpoint in
            let r = post s target xmi in
            check Alcotest.int (target ^ " status") 422 r.Client.status;
            check Alcotest.string (target ^ " body") rejected r.Client.body)
          Api.all_endpoints;
        let file = save_xmi xmi in
        let code, _ = run_cli ("lint " ^ Filename.quote file) in
        Sys.remove file;
        checkb "umlfront lint fails" (code <> 0));
  ]

(* --- the hammer ------------------------------------------------------ *)

(* Deterministic request vocabulary: every endpoint flavor over a set
   of lint-clean random models drawn from all six generator shapes. *)
let hammer_models seed =
  let shapes =
    [
      ("pipeline", fun s -> R.pipeline ~seed:s ~threads:3 ~extra_edges:1);
      ("wide", fun s -> R.wide ~seed:s ~branches:3 ~depth:2);
      ("monolithic", fun s -> R.monolithic ~seed:s ~calls:5);
      ("cyclic", fun s -> R.cyclic ~seed:s ~stages:2);
      ("multi-cpu", fun s -> R.multi_cpu ~seed:s ~threads:4 ~cpus:2 ~extra_edges:1);
      ("chatty", fun s -> R.chatty ~seed:s ~threads:3 ~width:2);
    ]
  in
  List.filter_map
    (fun (shape, gen) ->
      (* Find a lint-clean instance within a few seed probes so every
         request in the hammer is a 200. *)
      let rec probe k =
        if k >= 10 then None
        else
          let uml = gen (seed + k) in
          match Core.Flow.run uml with
          | output when A.Lint.check ~uml output.Core.Flow.caam = [] ->
              Some (shape, U.Xmi.to_string uml)
          | _ -> probe (k + 1)
          | exception Invalid_argument _ -> probe (k + 1)
      in
      probe 0)
    shapes

let hammer_targets =
  [
    "/api/lint";
    "/api/transform";
    "/api/simulate?rounds=5";
    "/api/simulate?rounds=5&engine=seq";
    "/api/generate/c?rounds=4";
    "/api/generate/java";
    "/api/generate/kpn";
    "/api/conform?backends=seq&rounds=5";
  ]

(* Sequential replay on a private server: the reference bodies and
   per-request span counts every concurrent run must reproduce. *)
let sequential_reference requests =
  with_server ~config:{ Server.default_config with Server.pool = 1 } @@ fun s ->
  List.map
    (fun (target, xmi) ->
      let r = post s target xmi in
      if r.Client.status <> 200 then
        Alcotest.failf "reference %s: status %d (%s)" target r.Client.status
          r.Client.body;
      let spans =
        match Client.header r "x-request-spans" with
        | Some n -> int_of_string n
        | None -> -1
      in
      ((target, xmi), (r.Client.body, spans)))
    requests

let run_hammer ~seed ~total ~clients =
  let models = hammer_models seed in
  checkb "generators produced models" (List.length models >= 4);
  let unique =
    List.concat_map
      (fun (_, xmi) -> List.map (fun t -> (t, xmi)) hammer_targets)
      models
  in
  let reference = sequential_reference unique in
  (* The concurrent run: [total] requests (unique vocabulary cycled, so
     duplicates exercise the cache) split across [clients] domains
     against one shared server. *)
  let requests =
    Array.init total (fun i -> List.nth unique (i mod List.length unique))
  in
  (* Deterministic shuffle so neighbours in time are mixed endpoints. *)
  let st = Random.State.make [| seed; 0xbeef |] in
  for i = Array.length requests - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = requests.(i) in
    requests.(i) <- requests.(j);
    requests.(j) <- tmp
  done;
  with_server
    ~config:{ Server.default_config with Server.pool = 4; max_inflight = 64 }
  @@ fun s ->
  let port = Server.port s in
  let slice c =
    let rec go i acc =
      if i >= Array.length requests then List.rev acc
      else go (i + clients) (requests.(i) :: acc)
    in
    go c []
  in
  let worker c () =
    List.map
      (fun (target, xmi) ->
        let r = Client.post ~port target xmi in
        ( (target, xmi),
          r.Client.status,
          r.Client.body,
          Client.header r "x-cache",
          Client.header r "x-request-spans" ))
      (slice c)
  in
  let domains = List.init clients (fun c -> Domain.spawn (worker c)) in
  let results = List.concat_map Domain.join domains in
  check Alcotest.int "all requests answered" total (List.length results);
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (key, status, body, cache, spans) ->
      let target = fst key in
      check Alcotest.int (target ^ " status") 200 status;
      let ref_body, ref_spans = List.assoc key reference in
      check Alcotest.string (target ^ " deterministic body") ref_body body;
      match cache with
      | Some "hit" -> incr hits
      | Some "miss" ->
          incr misses;
          (* Telemetry isolation: a computed request records exactly
             the spans the sequential replay recorded — a context bled
             into by a concurrent request would count extra events. *)
          check
            Alcotest.(option string)
            (target ^ " span count stable")
            (Some (string_of_int ref_spans))
            spans
      | _ -> Alcotest.failf "%s: missing X-Cache header" target)
    results;
  checkb "cache hits observed" (!hits > 0);
  check Alcotest.int "hits + misses = total" total (!hits + !misses);
  (* The server-side view agrees: hit ratio > 0, and every miss ran the
     flow exactly once (no double work, no lost merges). *)
  let m = (get s "/metrics").Client.body in
  (match metrics_counter m "umlfront_serve_cache_hit_total" with
  | Some n -> check Alcotest.int "server-side hits" !hits n
  | None -> Alcotest.fail "umlfront_serve_cache_hit_total missing");
  match
    ( metrics_counter m "umlfront_flow_runs_total",
      metrics_counter m "umlfront_serve_cache_miss_total" )
  with
  | Some flows, Some miss -> check Alcotest.int "flow runs == cache misses" miss flows
  | _ -> Alcotest.fail "flow/miss counters missing from /metrics"

let hammer_tests =
  [
    Alcotest.test_case
      "200 concurrent mixed requests = sequential replay (8 clients)" `Slow
      (fun () -> run_hammer ~seed:7 ~total:200 ~clients:8);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2
         ~name:"concurrent serving is deterministic across seeds"
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
         (fun seed ->
           run_hammer ~seed:(seed + 11) ~total:64 ~clients:4;
           true));
  ]

(* --- observability: traceparent ------------------------------------- *)

let traceparent_parse_strictness () =
  let ok = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" in
  (match Traceparent.parse ok with
  | Some t ->
      checkb "sampled bit" (Traceparent.sampled t);
      check Alcotest.string "round-trip" ok (Traceparent.to_string t)
  | None -> Alcotest.fail "valid traceparent rejected");
  List.iter
    (fun bad -> checkb ("rejects " ^ bad) (Traceparent.parse bad = None))
    [
      "";
      "00-short-b7ad6b7169203331-01";
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331";
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
      "00-00000000000000000000000000000000-b7ad6b7169203331-01";
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01";
      "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01";
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01";
    ];
  (* Minted ids parse, and a child stays in the parent's trace under a
     fresh span id. *)
  let t = Traceparent.generate () in
  checkb "generated id parses"
    (Traceparent.parse (Traceparent.to_string t) = Some t);
  let c = Traceparent.child t in
  check Alcotest.string "child keeps the trace id" t.Traceparent.trace_id
    c.Traceparent.trace_id;
  checkb "child gets a fresh parent id"
    (c.Traceparent.parent_id <> t.Traceparent.parent_id)

let traceparent_roundtrip_prop =
  let hex n =
    QCheck.Gen.(
      string_size ~gen:(map (fun i -> "0123456789abcdef".[i]) (int_bound 15))
        (return n))
  in
  let fix_zero s =
    if String.for_all (( = ) '0') s then
      "1" ^ String.sub s 1 (String.length s - 1)
    else s
  in
  let gen =
    QCheck.make
      ~print:(fun t -> Traceparent.to_string t)
      QCheck.Gen.(
        map3
          (fun tid pid flags ->
            {
              Traceparent.trace_id = fix_zero tid;
              parent_id = fix_zero pid;
              flags;
            })
          (hex 32) (hex 16) (int_bound 255))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"traceparent to_string/parse round-trips" ~count:200 gen
       (fun t -> Traceparent.parse (Traceparent.to_string t) = Some t))

let obs_unit_tests =
  [
    test "traceparent parse is strict" traceparent_parse_strictness;
    traceparent_roundtrip_prop;
  ]

(* --- observability end to end ---------------------------------------- *)

let obs_e2e_tests =
  [
    test "every response carries a parseable traceparent; inbound is joined"
      (fun () ->
        with_server @@ fun s ->
        let r = get s "/healthz" in
        let minted =
          match Client.traceparent r with
          | Some tp -> tp
          | None -> Alcotest.fail "no traceparent on the response"
        in
        checkb "minted traceparent parses" (Traceparent.parse minted <> None);
        let inbound = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" in
        let r2 =
          Client.request
            ~headers:[ ("traceparent", inbound) ]
            ~port:(Server.port s) ~meth:"GET" "/healthz"
        in
        match Option.bind (Client.traceparent r2) Traceparent.parse with
        | Some t ->
            check Alcotest.string "same trace id"
              "0af7651916cd43dd8448eb211c80319c" t.Traceparent.trace_id;
            checkb "fresh span id" (t.Traceparent.parent_id <> "b7ad6b7169203331")
        | None -> Alcotest.fail "echoed traceparent missing or malformed");
    test "?trace=1 retains the span tree as Chrome trace JSON" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let r = post s "/api/lint?trace=1" xmi in
        check Alcotest.int "200" 200 r.Client.status;
        let id =
          match Client.request_id r with
          | Some id -> id
          | None -> Alcotest.fail "no X-Request-Id"
        in
        let tr = Client.trace ~port:(Server.port s) id in
        check Alcotest.int "trace retrievable" 200 tr.Client.status;
        check Alcotest.(option string) "trace is JSON" (Some "application/json")
          (Client.header tr "content-type");
        let doc = Json.parse_exn tr.Client.body in
        let events = Json.items (Option.get (Json.member "traceEvents" doc)) in
        checkb "span events present" (List.length events > 0);
        List.iter
          (fun e ->
            List.iter
              (fun key -> checkb (key ^ " present") (Json.member key e <> None))
              [ "name"; "ph"; "ts" ])
          events;
        let other = Option.get (Json.member "otherData" doc) in
        checkb "endpoint recorded"
          (Json.member "endpoint" other = Some (Json.String "lint"));
        (* A cache hit with ?trace=1 still retains a (one-span) tree
           under its own request id. *)
        let r2 = post s "/api/lint?trace=1" xmi in
        check Alcotest.(option string) "second request hits" (Some "hit")
          (Client.header r2 "x-cache");
        let id2 = Option.get (Client.request_id r2) in
        checkb "distinct request ids" (id <> id2);
        let tr2 = Client.trace ~port:(Server.port s) id2 in
        check Alcotest.int "hit trace retrievable" 200 tr2.Client.status;
        checkb "hit trace marks the cache"
          (Astring_contains.contains tr2.Client.body "serve.cache.hit"));
    test "unsampled requests retain nothing; trace_sample 1.0 retains all"
      (fun () ->
        (with_server @@ fun s ->
         let r = post s "/api/lint" (Lazy.force didactic_xmi) in
         let id = Option.get (Client.request_id r) in
         check Alcotest.int "no trace kept" 404
           (Client.trace ~port:(Server.port s) id).Client.status);
        with_server
          ~config:{ Server.default_config with Server.trace_sample = 1.0 }
        @@ fun s ->
        let r = post s "/api/lint" (Lazy.force didactic_xmi) in
        let id = Option.get (Client.request_id r) in
        check Alcotest.int "sampled trace kept" 200
          (Client.trace ~port:(Server.port s) id).Client.status);
    test "labeled request counters reflect traffic" (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        check Alcotest.int "lint" 200 (post s "/api/lint" xmi).Client.status;
        check Alcotest.int "lint again" 200 (post s "/api/lint" xmi).Client.status;
        let m = (get s "/metrics").Client.body in
        checkb "labeled request counter"
          (Astring_contains.contains m
             "umlfront_serve_requests_total{endpoint=\"/api/lint\",status=\"200\"} 2");
        checkb "the labeled family is the only per-status and per-endpoint one"
          (not (Astring_contains.contains m "umlfront_serve_status_")
          && not (Astring_contains.contains m "umlfront_serve_endpoint_")));
    test "access log is parseable JSONL written off the request path"
      (fun () ->
        let path = Filename.temp_file "umlfront_access" ".jsonl" in
        Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        (with_server
           ~config:{ Server.default_config with Server.access_log = Some path }
        @@ fun s ->
         let xmi = Lazy.force didactic_xmi in
         check Alcotest.int "lint" 200 (post s "/api/lint" xmi).Client.status;
         check Alcotest.int "healthz" 200 (get s "/healthz").Client.status;
         check Alcotest.int "no lines dropped" 0 (Server.access_log_dropped s));
        (* stop joined the writer domain, so the file is complete. *)
        let lines =
          read_file path |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        check Alcotest.int "one line per request" 2 (List.length lines);
        List.iter
          (fun line ->
            let doc = Json.parse_exn line in
            List.iter
              (fun key -> checkb (key ^ " present") (Json.member key doc <> None))
              [ "ts"; "id"; "endpoint"; "status"; "cache"; "latency_us"; "trace_id" ])
          lines;
        checkb "endpoints recorded"
          (Astring_contains.contains (read_file path) "\"/api/lint\""));
    test "a traced lint miss skips layout and emit; transform runs them; kpn prints once"
      (fun () ->
        with_server @@ fun s ->
        let xmi = Lazy.force didactic_xmi in
        let spans target =
          let r = post s (target ^ "?trace=1") xmi in
          check Alcotest.(option string) (target ^ " misses") (Some "miss")
            (Client.header r "x-cache");
          let tr = Client.trace ~port:(Server.port s) (Option.get (Client.request_id r)) in
          List.filter_map
            (fun e ->
              match Json.member "name" e with Some (Json.String n) -> Some n | _ -> None)
            (Json.items (Option.get (Json.member "traceEvents" (Json.parse_exn tr.Client.body))))
        in
        let lint = spans "/api/lint" and transform = spans "/api/transform" in
        let kpn = spans "/api/generate/kpn" in
        checkb "lint runs the flow" (List.mem "flow.run" lint);
        checkb "lint runs the barriers" (List.mem "flow.barriers" lint);
        List.iter
          (fun name ->
            checkb ("lint has no " ^ name) (not (List.mem name lint));
            checkb ("transform has " ^ name) (List.mem name transform))
          [ "flow.layout"; "flow.emit"; "mdl.write" ];
        checkb "kpn has no flow.layout or flow.emit"
          (not (List.mem "flow.layout" kpn || List.mem "flow.emit" kpn));
        check Alcotest.int "kpn prints the .mdl text once" 1
          (List.length (List.filter (String.equal "mdl.write") kpn)));
  ]

let suite =
  [
    ("serve:http", http_tests);
    ("serve:cache", cache_tests);
    ("serve:api", api_tests);
    ("serve:json", roundtrip_tests);
    ("serve:obs", obs_unit_tests);
    ("serve:e2e", e2e_tests);
    ("serve:obs-e2e", obs_e2e_tests);
    ("serve:hammer", hammer_tests);
  ]
