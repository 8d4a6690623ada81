(* Unit and property tests for the nfp_algo substrate. *)

open Nfp_algo

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let ring_tests =
  [
    Alcotest.test_case "rejects zero capacity" `Quick (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Ring.create: capacity must be positive")
          (fun () -> ignore (Ring.create ~capacity:0)));
    Alcotest.test_case "fifo order" `Quick (fun () ->
        let r = Ring.create ~capacity:4 in
        List.iter (fun x -> ignore (Ring.enqueue r x)) [ 1; 2; 3 ];
        check Alcotest.int "first" 1 (Ring.dequeue_exn r);
        check Alcotest.int "second" 2 (Ring.dequeue_exn r));
    Alcotest.test_case "enqueue fails when full" `Quick (fun () ->
        let r = Ring.create ~capacity:2 in
        check Alcotest.bool "1" true (Ring.enqueue r 1);
        check Alcotest.bool "2" true (Ring.enqueue r 2);
        check Alcotest.bool "3 refused" false (Ring.enqueue r 3);
        check Alcotest.int "rejected" 1 (Ring.rejected_total r));
    Alcotest.test_case "wrap-around preserves order" `Quick (fun () ->
        let r = Ring.create ~capacity:3 in
        ignore (Ring.enqueue r 1);
        ignore (Ring.enqueue r 2);
        ignore (Ring.dequeue_exn r);
        ignore (Ring.enqueue r 3);
        ignore (Ring.enqueue r 4);
        check
          Alcotest.(list int)
          "drain order" [ 2; 3; 4 ]
          (List.map (fun () -> Ring.dequeue_exn r) [ (); (); () ]);
        check Alcotest.bool "empty" true (Ring.is_empty r));
    qtest "ring behaves like a bounded queue"
      QCheck.(pair (int_range 1 8) (list (option small_int)))
      (fun (capacity, ops) ->
        (* Some x = enqueue x, None = dequeue; compare with a model. *)
        let r = Ring.create ~capacity in
        let model = Queue.create () in
        List.for_all
          (function
            | Some x ->
                let accepted = Ring.enqueue r x in
                let model_accepts = Queue.length model < capacity in
                if model_accepts then Queue.add x model;
                accepted = model_accepts
            | None ->
                let got = if Ring.is_empty r then None else Some (Ring.dequeue_exn r) in
                let expected = Queue.take_opt model in
                got = expected)
          ops);
    (* The breath loop's burst dequeue across the wrap-around seam and
       the full/empty boundaries. *)
    Alcotest.test_case "dequeue_into drains across the wrap seam" `Quick (fun () ->
        let r = Ring.create ~capacity:4 in
        List.iter (fun x -> ignore (Ring.enqueue r x)) [ 1; 2; 3 ];
        ignore (Ring.dequeue_exn r);
        ignore (Ring.dequeue_exn r);
        ignore (Ring.enqueue r 4);
        ignore (Ring.enqueue r 5);
        (* head is now at slot 2; elements 3,4,5 straddle the seam *)
        let dst = Array.make 4 0 in
        check Alcotest.int "drained" 3 (Ring.dequeue_into r dst 0 4);
        check Alcotest.(list int) "order" [ 3; 4; 5 ] (Array.to_list (Array.sub dst 0 3));
        check Alcotest.bool "empty after" true (Ring.is_empty r));
    Alcotest.test_case "dequeue_into on empty ring is a no-op" `Quick (fun () ->
        let r = Ring.create ~capacity:4 in
        check Alcotest.int "none" 0 (Ring.dequeue_into r (Array.make 2 0) 0 2));
    Alcotest.test_case "dequeue_into respects max and dst room" `Quick (fun () ->
        let r = Ring.create ~capacity:8 in
        List.iter (fun x -> ignore (Ring.enqueue r x)) [ 1; 2; 3; 4; 5 ];
        let dst = Array.make 4 0 in
        check Alcotest.int "max-bound" 2 (Ring.dequeue_into r dst 0 2);
        check Alcotest.int "dst-bound" 2 (Ring.dequeue_into r dst 2 9);
        check Alcotest.(list int) "contents" [ 1; 2; 3; 4 ] (Array.to_list dst);
        check Alcotest.int "left behind" 1 (Ring.length r));
    Alcotest.test_case "dequeue_into rejects bad positions" `Quick (fun () ->
        let r = Ring.create ~capacity:2 in
        Alcotest.check_raises "oob"
          (Invalid_argument "Ring.dequeue_into: destination position out of range")
          (fun () -> ignore (Ring.dequeue_into r (Array.make 2 0) 3 1)));
    qtest "burst ops behave like loops of single ops"
      QCheck.(
        pair (int_range 1 8)
          (small_list (pair bool (pair (int_range 0 9) small_int))))
      (fun (capacity, ops) ->
        (* (true, (n, x)) = enqueues of [x; x+1; ..] length n;
           (false, (n, _)) = dequeue_into of up to n. The model runs the
           same op as single enqueues/dequeues on a Queue; acceptance
           counts, rejection stats, and drained prefixes must agree. *)
        let r = Ring.create ~capacity in
        let model = Queue.create () in
        let rejected = ref 0 in
        List.for_all
          (fun (is_enq, (n, x)) ->
            if is_enq then begin
              let src = Array.init n (fun i -> x + i) in
              let accepted =
                Array.fold_left (fun k v -> if Ring.enqueue r v then k + 1 else k) 0 src
              in
              let model_accepted = min n (capacity - Queue.length model) in
              for i = 0 to model_accepted - 1 do
                Queue.add src.(i) model
              done;
              rejected := !rejected + (n - model_accepted);
              accepted = model_accepted && Ring.rejected_total r = !rejected
            end
            else begin
              let dst = Array.make (max n 1) (-1) in
              let got = Ring.dequeue_into r dst 0 n in
              let expected = min n (Queue.length model) in
              got = expected
              && List.for_all
                   (fun i -> Queue.pop model = dst.(i))
                   (List.init expected Fun.id)
            end)
          ops
        && Ring.length r = Queue.length model);
  ]

(* ------------------------------------------------------------------ *)
(* Lpm                                                                 *)
(* ------------------------------------------------------------------ *)

let ip a b c d =
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

(* The longest route covering [addr], the later of two equal ones: the
   brute-force model of [Lpm]. *)
let lpm_model routes addr =
  let covers (prefix, len, _) =
    len = 0 || Int32.shift_right_logical (Int32.logxor prefix addr) (32 - len) = 0l
  in
  List.fold_left
    (fun best ((_, len, _) as r) ->
      match best with
      | Some (_, blen, _) when blen > len -> best
      | _ -> if covers r then Some r else best)
    None routes
  |> Option.map (fun (_, _, v) -> v)

(* Routes around one to four random 32-bit bases, so prefixes nest and
   repeat and bit 31 is often set; lengths weighted towards /0 and /32;
   the empty set included. Each route's value is its position. Probe
   addresses lie near the bases (low bits flipped) or anywhere. *)
let lpm_case =
  let open QCheck.Gen in
  let gen =
    list_size (int_range 1 4) int32 >>= fun bases ->
    let near =
      map3
        (fun b k r -> Int32.logxor b (Int32.logand r (Int32.pred (Int32.shift_left 1l k))))
        (oneofl bases) (int_range 0 31) int32
    in
    let addr = frequency [ (3, near); (1, int32) ] in
    let len = frequency [ (1, return 0); (1, return 32); (4, int_range 0 32) ] in
    pair
      (map (List.mapi (fun i (p, l) -> (p, l, i))) (list_size (int_bound 12) (pair addr len)))
      (list_size (return 16) addr)
  in
  let show_addr a = Printf.sprintf "0x%08lx" a in
  QCheck.make gen
    ~print:
      QCheck.Print.(
        pair
          (list (fun (p, l, v) -> Printf.sprintf "%s/%d=%d" (show_addr p) l v))
          (list show_addr))

let lpm_tests =
  [
    Alcotest.test_case "empty table finds nothing" `Quick (fun () ->
        let t : int Lpm.t = Lpm.of_list [] in
        check Alcotest.(option int) "none" None (Lpm.lookup t (ip 10 0 0 1)));
    Alcotest.test_case "longest prefix wins" `Quick (fun () ->
        let t =
          Lpm.of_list [ (ip 10 1 2 0, 24, 3); (ip 10 0 0 0, 8, 1); (ip 10 1 0 0, 16, 2) ]
        in
        check Alcotest.(option int) "/24" (Some 3) (Lpm.lookup t (ip 10 1 2 9));
        check Alcotest.(option int) "/16" (Some 2) (Lpm.lookup t (ip 10 1 9 9));
        check Alcotest.(option int) "/8" (Some 1) (Lpm.lookup t (ip 10 9 9 9)));
    Alcotest.test_case "default route /0 matches everything" `Quick (fun () ->
        let t = Lpm.of_list [ (0l, 0, 42) ] in
        check Alcotest.(option int) "any" (Some 42) (Lpm.lookup t (ip 192 168 1 1)));
    Alcotest.test_case "/32 exact host route" `Quick (fun () ->
        let t = Lpm.of_list [ (ip 10 0 0 5, 32, 7) ] in
        check Alcotest.(option int) "host" (Some 7) (Lpm.lookup t (ip 10 0 0 5));
        check Alcotest.(option int) "neighbour" None (Lpm.lookup t (ip 10 0 0 6)));
    Alcotest.test_case "overwrite same prefix" `Quick (fun () ->
        let t = Lpm.of_list [ (ip 10 0 0 0, 8, 1); (ip 10 0 0 0, 8, 2) ] in
        check Alcotest.(option int) "new value" (Some 2) (Lpm.lookup t (ip 10 3 0 0)));
    Alcotest.test_case "invalid prefix length" `Quick (fun () ->
        List.iter
          (fun len ->
            Alcotest.check_raises (Printf.sprintf "/%d" len)
              (Invalid_argument "Lpm: prefix length must be in [0, 32]") (fun () ->
                ignore (Lpm.of_list [ (0l, 8, ()); (0l, len, ()) ])))
          [ 33; -1 ]);
    qtest ~count:300 "lookup agrees with naive longest-prefix scan" lpm_case
      (fun (routes, addrs) ->
        let t = Lpm.of_list routes in
        List.for_all
          (fun addr ->
            let want = lpm_model routes addr in
            Lpm.lookup t addr = want
            && Lpm.lookup_int t (Int32.to_int addr land 0xffff_ffff) = want)
          addrs);
  ]

(* ------------------------------------------------------------------ *)
(* Aho-Corasick                                                        *)
(* ------------------------------------------------------------------ *)

let naive_matches patterns text =
  List.exists
    (fun p ->
      p <> ""
      &&
      let n = String.length text and m = String.length p in
      let rec go i = i + m <= n && (String.sub text i m = p || go (i + 1)) in
      go 0)
    patterns

(* Every [(pattern index, end)] occurrence. [scan] reports by end
   position; at one end, longer patterns first (the automaton's output
   list follows failure links to ever shorter suffixes), and repeats of
   one pattern in reverse index order. *)
let naive_scan patterns text =
  let indexed = List.mapi (fun i p -> (i, p)) patterns in
  let at_end =
    List.sort
      (fun (i, p) (j, q) -> compare (String.length q, j) (String.length p, i))
      indexed
  in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (i, p) ->
          let m = String.length p in
          if m <= e && String.sub text (e - m) m = p then Some (i, e) else None)
        at_end)
    (List.init (String.length text) (fun k -> k + 1))

(* Patterns over all 256 byte values. Half the cases add 2-byte
   patterns covering every byte, so no byte falls in the shared class
   and the class map holds 256 classes. The sub-range [pos, pos + len)
   lies inside the text. *)
let aho_case =
  let open QCheck in
  let gen =
    Gen.(
      let* cover = bool in
      let* random = list_size (int_range 1 8) (string_size ~gen:char (int_range 1 4)) in
      let all = List.init 128 (fun i -> String.init 2 (fun j -> Char.chr ((2 * i) + j))) in
      let patterns = if cover then random @ all else random in
      (* Texts splice patterns between random bytes, so most cases hit. *)
      let* pieces =
        list_size (int_range 0 10)
          (oneof [ oneofl patterns; string_size ~gen:char (int_range 0 6) ])
      in
      let text = String.concat "" pieces in
      let* pos = int_range 0 (String.length text) in
      let+ len = int_range 0 (String.length text - pos) in
      (patterns, text, pos, len))
  in
  make
    ~print:(fun (ps, text, pos, len) ->
      Printf.sprintf "patterns=%s text=%S pos=%d len=%d"
        (String.concat "," (List.map (Printf.sprintf "%S") ps))
        text pos len)
    gen

(* Cases where the block-shift filter runs: every pattern at least
   [minlen] (2-8) bytes long, one exactly that, over a 3-letter alphabet
   (half the time "a", "\x00" and "\xff"), so blocks repeat and
   windows often shift by less than [minlen - 1]. Texts splice
   patterns, their proper prefixes (which walk the DFA without
   accepting) and alphabet noise. Half the cases end the range exactly
   where a pattern ends; [len] may be shorter than every pattern. *)
let skip_case =
  let open QCheck in
  let gen =
    Gen.(
      let* alphabet = oneofl [ "abc"; "a\x00\xff" ] in
      let letter = map (String.get alphabet) (int_bound 2) in
      let* minlen = int_range 2 8 in
      let word lo hi = string_size ~gen:letter (int_range lo hi) in
      let* shortest = word minlen minlen in
      let* longer = list_size (int_range 0 5) (word minlen (minlen + 6)) in
      let patterns = shortest :: longer in
      let prefix = map2 (fun p k -> String.sub p 0 (k mod String.length p)) (oneofl patterns) nat in
      let* pieces =
        list_size (int_range 0 12) (frequency [ (1, oneofl patterns); (3, prefix); (2, word 0 5) ])
      in
      let text = String.concat "" pieces in
      let* pos = int_range 0 (String.length text) in
      let* at_end = bool in
      if at_end then
        let+ p = oneofl patterns in
        let text = text ^ p in
        (patterns, text, pos, String.length text - pos)
      else
        let+ len = int_range 0 (String.length text - pos) in
        (patterns, text, pos, len))
  in
  make
    ~print:(fun (ps, text, pos, len) ->
      Printf.sprintf "patterns=%s text=%S pos=%d len=%d"
        (String.concat "," (List.map (Printf.sprintf "%S") ps))
        text pos len)
    gen

let aho_tests =
  [
    Alcotest.test_case "finds single pattern" `Quick (fun () ->
        let t = Aho_corasick.build [ "needle" ] in
        check Alcotest.bool "hit" true (Aho_corasick.matches t "hay needle stack");
        check Alcotest.bool "miss" false (Aho_corasick.matches t "haystack"));
    Alcotest.test_case "reports end positions" `Quick (fun () ->
        let t = Aho_corasick.build [ "ab"; "bc" ] in
        check
          Alcotest.(list (pair int int))
          "matches" [ (0, 2); (1, 3) ] (Aho_corasick.scan t "abc"));
    Alcotest.test_case "overlapping patterns all found" `Quick (fun () ->
        let t = Aho_corasick.build [ "aa" ] in
        check Alcotest.int "three overlaps" 3 (List.length (Aho_corasick.scan t "aaaa")));
    Alcotest.test_case "pattern that is a suffix of another" `Quick (fun () ->
        let t = Aho_corasick.build [ "she"; "he" ] in
        let hits = Aho_corasick.scan t "she" in
        check Alcotest.int "both fire" 2 (List.length hits));
    Alcotest.test_case "empty patterns ignored" `Quick (fun () ->
        let t = Aho_corasick.build [ ""; "x" ] in
        check Alcotest.bool "no empty match" false (Aho_corasick.matches t "abc"));
    Alcotest.test_case "empty text" `Quick (fun () ->
        let t = Aho_corasick.build [ "x" ] in
        check Alcotest.bool "no match" false (Aho_corasick.matches t ""));
    Alcotest.test_case "binary bytes" `Quick (fun () ->
        let t = Aho_corasick.build [ "\x00\xff" ] in
        check Alcotest.bool "hit" true (Aho_corasick.matches t "a\x00\xffb"));
    qtest ~count:150 "matches agrees with naive search"
      QCheck.(pair (list (string_of_size (Gen.int_range 1 4))) (string_of_size (Gen.int_range 0 40)))
      (fun (patterns, text) ->
        let t = Aho_corasick.build patterns in
        Aho_corasick.matches t text = naive_matches patterns text);
    qtest ~count:100 "scan is consistent with matches"
      QCheck.(pair (list (string_of_size (Gen.int_range 1 3))) (string_of_size (Gen.int_range 0 30)))
      (fun (patterns, text) ->
        let t = Aho_corasick.build patterns in
        Aho_corasick.matches t text = (Aho_corasick.scan t text <> []));
    qtest ~count:200 "matches_bytes over a sub-range agrees with naive search"
      aho_case
      (fun (patterns, text, pos, len) ->
        let t = Aho_corasick.build patterns in
        let buf = Bytes.of_string text in
        Aho_corasick.matches_bytes t buf ~pos ~len
        = naive_matches patterns (Bytes.sub_string buf pos len));
    qtest ~count:500 "matches_bytes through the block-shift filter agrees with naive search"
      skip_case
      (fun (patterns, text, pos, len) ->
        let t = Aho_corasick.build patterns in
        let buf = Bytes.of_string text in
        Aho_corasick.matches_bytes t buf ~pos ~len
        = naive_matches patterns (Bytes.sub_string buf pos len)
        && Aho_corasick.matches t text = naive_matches patterns text);
    qtest ~count:200 "scan reports every occurrence, in order" aho_case
      (fun (patterns, text, _, _) ->
        Aho_corasick.scan (Aho_corasick.build patterns) text = naive_scan patterns text);
    Alcotest.test_case "matches_bytes rejects a range outside the buffer" `Quick
      (fun () ->
        let t = Aho_corasick.build [ "ab" ] and buf = Bytes.of_string "xxab" in
        check Alcotest.bool "in range" true (Aho_corasick.matches_bytes t buf ~pos:2 ~len:2);
        check Alcotest.bool "stops at len" false
          (Aho_corasick.matches_bytes t buf ~pos:1 ~len:2);
        List.iter
          (fun (pos, len) ->
            match Aho_corasick.matches_bytes t buf ~pos ~len with
            | _ -> Alcotest.failf "accepted pos=%d len=%d" pos len
            | exception Invalid_argument _ -> ())
          [ (-1, 2); (3, 2); (0, -1); (5, 0) ]);
  ]

(* ------------------------------------------------------------------ *)
(* AES                                                                 *)
(* ------------------------------------------------------------------ *)

let aes_tests =
  [
    Alcotest.test_case "FIPS-197 known answer" `Quick (fun () ->
        (* FIPS-197 C.1: key 000102...0f, plaintext 00112233...ff. *)
        let k = Aes.expand_key (String.init 16 Char.chr) in
        let plain = Bytes.init 16 (fun i -> Char.chr ((i * 0x11) land 0xff)) in
        let buf = Bytes.copy plain in
        Aes.encrypt_block k buf ~pos:0;
        check Alcotest.string "cipher"
          "\x69\xc4\xe0\xd8\x6a\x7b\x04\x30\xd8\xcd\xb7\x80\x70\xb4\xc5\x5a"
          (Bytes.to_string buf);
        Aes.decrypt_block k buf ~pos:0;
        check Alcotest.bytes "plain" plain buf);
    Alcotest.test_case "NIST SP 800-38A ECB vectors" `Quick (fun () ->
        (* Key 2b7e151628aed2a6abf7158809cf4f3c over the four standard
           plaintext blocks. *)
        let hex s =
          String.init (String.length s / 2) (fun i ->
              Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
        in
        let k = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
        List.iter
          (fun (plain, cipher) ->
            let buf = Bytes.of_string (hex plain) in
            Aes.encrypt_block k buf ~pos:0;
            check Alcotest.string plain (hex cipher) (Bytes.to_string buf))
          [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
          ]);
    Alcotest.test_case "key must be 16 bytes" `Quick (fun () ->
        Alcotest.check_raises "short key"
          (Invalid_argument "Aes.expand_key: key must be 16 bytes") (fun () ->
            ignore (Aes.expand_key "short")));
    Alcotest.test_case "block bounds checked" `Quick (fun () ->
        let k = Aes.expand_key (String.make 16 'k') in
        Alcotest.check_raises "overrun" (Invalid_argument "Aes: block overruns buffer")
          (fun () -> Aes.encrypt_block k (Bytes.create 10) ~pos:0));
    Alcotest.test_case "ctr twice restores plaintext" `Quick (fun () ->
        let k = Aes.expand_key "0123456789abcdef" in
        let original = "the quick brown fox jumps over" in
        let buf = Bytes.of_string original in
        Aes.ctr_transform k ~nonce:7L buf ~pos:0 ~len:(Bytes.length buf);
        check Alcotest.bool "changed" false (Bytes.to_string buf = original);
        Aes.ctr_transform k ~nonce:7L buf ~pos:0 ~len:(Bytes.length buf);
        check Alcotest.string "restored" original (Bytes.to_string buf));
    Alcotest.test_case "different nonces give different streams" `Quick (fun () ->
        let k = Aes.expand_key "0123456789abcdef" in
        let a = Bytes.make 16 'x' and b = Bytes.make 16 'x' in
        Aes.ctr_transform k ~nonce:1L a ~pos:0 ~len:16;
        Aes.ctr_transform k ~nonce:2L b ~pos:0 ~len:16;
        check Alcotest.bool "differ" false (Bytes.equal a b));
    Alcotest.test_case "ctr over a sub-range leaves the rest" `Quick (fun () ->
        let k = Aes.expand_key "0123456789abcdef" in
        let buf = Bytes.of_string "AAAABBBBCCCCDDDD" in
        Aes.ctr_transform k ~nonce:1L buf ~pos:4 ~len:4;
        check Alcotest.string "prefix intact" "AAAA" (Bytes.sub_string buf 0 4);
        check Alcotest.string "suffix intact" "CCCCDDDD" (Bytes.sub_string buf 8 8));
    qtest ~count:100 "encrypt/decrypt block roundtrip"
      QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
      (fun (key, block) ->
        let k = Aes.expand_key key in
        let buf = Bytes.of_string block in
        Aes.encrypt_block k buf ~pos:0;
        Aes.decrypt_block k buf ~pos:0;
        Bytes.to_string buf = block);
    qtest ~count:100 "ctr roundtrip at any length"
      QCheck.(string_of_size (Gen.int_range 0 100))
      (fun s ->
        let k = Aes.expand_key "keykeykeykeykey!" in
        let buf = Bytes.of_string s in
        Aes.ctr_transform k ~nonce:99L buf ~pos:0 ~len:(Bytes.length buf);
        Aes.ctr_transform k ~nonce:99L buf ~pos:0 ~len:(Bytes.length buf);
        Bytes.to_string buf = s);
  ]

(* ------------------------------------------------------------------ *)
(* Hashing / Checksum                                                  *)
(* ------------------------------------------------------------------ *)

let hashing_tests =
  [
    Alcotest.test_case "fnv1a32 of empty string is the offset basis" `Quick (fun () ->
        check Alcotest.int "offset" 0x811c9dc5 (Hashing.fnv1a32 ""));
    Alcotest.test_case "fnv1a32 known value" `Quick (fun () ->
        (* FNV-1a("a") = 0xe40c292c *)
        check Alcotest.int "a" 0xe40c292c (Hashing.fnv1a32 "a"));
    Alcotest.test_case "bytes range equals string slice" `Quick (fun () ->
        let s = "hello world" in
        check Alcotest.int "slice"
          (Hashing.fnv1a32 "world")
          (Hashing.fnv1a32_bytes (Bytes.of_string s) ~pos:6 ~len:5));
    Alcotest.test_case "bytes range bounds checked" `Quick (fun () ->
        Alcotest.check_raises "overrun"
          (Invalid_argument "Hashing.fnv1a32_bytes: range overruns buffer") (fun () ->
            ignore (Hashing.fnv1a32_bytes (Bytes.create 4) ~pos:2 ~len:4)));
    Alcotest.test_case "tuple5 deterministic and non-negative" `Quick (fun () ->
        let h1 = Hashing.tuple5 1l 2l 3 4 6 in
        let h2 = Hashing.tuple5 1l 2l 3 4 6 in
        check Alcotest.int "same" h1 h2;
        check Alcotest.bool "non-negative" true (h1 >= 0));
    Alcotest.test_case "tuple5 sensitive to each component" `Quick (fun () ->
        let base = Hashing.tuple5 1l 2l 3 4 6 in
        check Alcotest.bool "sip" true (base <> Hashing.tuple5 9l 2l 3 4 6);
        check Alcotest.bool "dip" true (base <> Hashing.tuple5 1l 9l 3 4 6);
        check Alcotest.bool "sport" true (base <> Hashing.tuple5 1l 2l 9 4 6);
        check Alcotest.bool "dport" true (base <> Hashing.tuple5 1l 2l 3 9 6);
        check Alcotest.bool "proto" true (base <> Hashing.tuple5 1l 2l 3 4 17));
    qtest "mix64 is injective-ish on sequential inputs"
      QCheck.(int_range 0 100000)
      (fun i ->
        Hashing.mix64 (Int64.of_int i) <> Hashing.mix64 (Int64.of_int (i + 1)));
    qtest "mix2_int equals the Int64 reference on random 5-tuples"
      QCheck.(
        pair
          (pair (int_bound 0xffffffff) (int_bound 0xffffffff))
          (pair (int_bound 0xffff) (pair (int_bound 0xffff) (int_bound 255))))
      (fun ((sip, dip), (sport, (dport, proto))) ->
        (* The limb-arithmetic hash on the classifier's hit path must be
           bit-identical to the boxed Int64 pipeline it replaces. *)
        let a = Hashing.pack_a_int sip sport proto
        and b = Hashing.pack_b_int dip dport in
        let reference =
          Int64.to_int
            (Hashing.mix64
               (Int64.logxor (Hashing.mix64 (Int64.of_int a)) (Int64.of_int b)))
        in
        Hashing.mix2_int a b = reference);
    Alcotest.test_case "packed limbs agree with the int32 forms" `Quick (fun () ->
        let sip = 0xc0a80001l and dip = 0x0a000037l in
        check Alcotest.int "pack_a"
          (Hashing.pack_a sip 12000 6)
          (Hashing.pack_a_int (Int32.to_int sip land 0xffffffff) 12000 6);
        check Alcotest.int "pack_b"
          (Hashing.pack_b dip 443)
          (Hashing.pack_b_int (Int32.to_int dip land 0xffffffff) 443));
    Alcotest.test_case "tuple5 is the truncation of tuple5_64" `Quick (fun () ->
        let h64 = Hashing.tuple5_64 0x0a000102l 0x0a080304l 12000 443 6 in
        check Alcotest.int "low bits"
          (Int64.to_int h64 land max_int)
          (Hashing.tuple5 0x0a000102l 0x0a080304l 12000 443 6));
    (* The one 5-tuple mixer keys ECMP, monitor tables and the microflow
       cache; these two bounds catch a silent quality regression. *)
    Alcotest.test_case "tuple5_64 avalanche: one flipped input bit moves ~half the \
                        output" `Quick (fun () ->
        let prng = Prng.create ~seed:11L in
        let popcount x =
          let c = ref 0 in
          for b = 0 to 63 do
            if Int64.logand (Int64.shift_right_logical x b) 1L = 1L then incr c
          done;
          !c
        in
        (* Flip every one of the 104 key bits across random base tuples;
           the mean flipped-output-bit count must sit near 32. *)
        let total = ref 0 and samples = ref 0 in
        for _ = 1 to 64 do
          let r () = Prng.int prng ~bound:(1 lsl 30) in
          let sip = Int32.of_int (r ()) and dip = Int32.of_int (r ()) in
          let sport = r () land 0xffff and dport = r () land 0xffff in
          let proto = r () land 0xff in
          let base = Hashing.tuple5_64 sip dip sport dport proto in
          let flip h' =
            total := !total + popcount (Int64.logxor base h');
            incr samples
          in
          for b = 0 to 31 do
            flip
              (Hashing.tuple5_64 (Int32.logxor sip (Int32.shift_left 1l b)) dip sport
                 dport proto);
            flip
              (Hashing.tuple5_64 sip (Int32.logxor dip (Int32.shift_left 1l b)) sport
                 dport proto)
          done;
          for b = 0 to 15 do
            flip (Hashing.tuple5_64 sip dip (sport lxor (1 lsl b)) dport proto);
            flip (Hashing.tuple5_64 sip dip sport (dport lxor (1 lsl b)) proto)
          done;
          for b = 0 to 7 do
            flip (Hashing.tuple5_64 sip dip sport dport (proto lxor (1 lsl b)))
          done
        done;
        let mean = float_of_int !total /. float_of_int !samples in
        check Alcotest.bool
          (Printf.sprintf "mean flipped bits %.2f in [28, 36]" mean)
          true
          (mean > 28.0 && mean < 36.0));
    Alcotest.test_case "tuple5_64 spreads structured flows evenly over buckets" `Quick
      (fun () ->
        (* Adversarially regular traffic: one subnet, sequential hosts
           and ports — exactly what a weak mixer clumps. *)
        let bins = Array.make 64 0 in
        let n = 8192 in
        for i = 0 to n - 1 do
          let sip = Int32.of_int (0x0a000000 lor (i land 0xff)) in
          let dip = Int32.of_int (0x0a080000 lor (i lsr 8)) in
          let h = Hashing.tuple5_64 sip dip (10000 + (i land 63)) 443 6 in
          let b = Int64.to_int h land 63 in
          bins.(b) <- bins.(b) + 1
        done;
        let expected = n / 64 in
        Array.iteri
          (fun b c ->
            check Alcotest.bool
              (Printf.sprintf "bin %d count %d within 2x of %d" b c expected)
              true
              (c > expected / 2 && c < expected * 2))
          bins);
    Alcotest.test_case "rss2_int is deterministic, non-negative and off-stream" `Quick
      (fun () ->
        let a = Hashing.pack_a_int 0x0a000102 12000 6
        and b = Hashing.pack_b_int 0x0a080304 443 in
        check Alcotest.int "deterministic" (Hashing.rss2_int a b) (Hashing.rss2_int a b);
        check Alcotest.bool "non-negative" true (Hashing.rss2_int a b >= 0);
        (* The shard stream must not be the bucket stream in disguise. *)
        check Alcotest.bool "differs from mix2_int" true
          (Hashing.rss2_int a b <> Hashing.mix2_int a b));
    Alcotest.test_case "shard choice is independent of the cache-bucket choice" `Quick
      (fun () ->
        (* The RSS stage must not correlate with the microflow cache's
           bucket hash: over random 5-tuples, every (bucket, shard)
           cell of the joint 64x4 histogram must stay near uniform. A
           correlated pair would clump — e.g. every flow of one bucket
           landing on one replica. *)
        let prng = Prng.create ~seed:23L in
        let buckets = 64 and shards = 4 in
        let joint = Array.make_matrix buckets shards 0 in
        let n = 32768 in
        for _ = 1 to n do
          let r () = Prng.int prng ~bound:(1 lsl 30) in
          let a = Hashing.pack_a_int (r () land 0xffffffff) (r () land 0xffff) 6
          and b = Hashing.pack_b_int (r () land 0xffffffff) (r () land 0xffff) in
          let bucket = Hashing.mix2_int a b land (buckets - 1) in
          let shard = Hashing.rss2_int a b mod shards in
          joint.(bucket).(shard) <- joint.(bucket).(shard) + 1
        done;
        let expected = n / (buckets * shards) in
        Array.iteri
          (fun bk row ->
            Array.iteri
              (fun s c ->
                check Alcotest.bool
                  (Printf.sprintf "cell (%d,%d) count %d within 2x of %d" bk s c
                     expected)
                  true
                  (c > expected / 2 && c < expected * 2))
              row)
          joint);
  ]

(* ------------------------------------------------------------------ *)
(* Flow_table (microflow cache)                                        *)
(* ------------------------------------------------------------------ *)

let flow_table_tests =
  let key i =
    ( Int32.of_int (0x0a000000 lor (i land 0xffff)),
      Int32.of_int (0x0a080000 lor (i lsr 4)),
      (10000 + i) land 0xffff,
      443,
      6 )
  in
  let limbs i =
    let sip, dip, sport, dport, proto = key i in
    (Hashing.pack_a sip sport proto, Hashing.pack_b dip dport)
  in
  let find t i =
    let a, b = limbs i in
    match Flow_table.find_packed t ~a ~b with -1 -> None | v -> Some v
  in
  let put t i v =
    let a, b = limbs i in
    Flow_table.put_packed t ~a ~b v
  in
  [
    Alcotest.test_case "put then find" `Quick (fun () ->
        let t = Flow_table.create ~capacity:64 () in
        put t 1 17;
        check (Alcotest.option Alcotest.int) "present" (Some 17) (find t 1);
        check (Alcotest.option Alcotest.int) "absent" None (find t 2);
        check Alcotest.int "hits" 1 (Flow_table.hits t);
        check Alcotest.int "misses" 1 (Flow_table.misses t));
    Alcotest.test_case "overwrite keeps one entry" `Quick (fun () ->
        let t = Flow_table.create ~capacity:64 () in
        put t 3 1;
        put t 3 2;
        check (Alcotest.option Alcotest.int) "updated" (Some 2) (find t 3);
        check Alcotest.int "no eviction" 0 (Flow_table.evictions t));
    Alcotest.test_case "zero values are cacheable (negative results)" `Quick (fun () ->
        let t = Flow_table.create ~capacity:64 () in
        put t 9 0;
        check (Alcotest.option Alcotest.int) "zero" (Some 0) (find t 9));
    Alcotest.test_case "negative values rejected" `Quick (fun () ->
        let t = Flow_table.create ~capacity:64 () in
        Alcotest.check_raises "neg" (Invalid_argument "Flow_table.put_packed: negative value")
          (fun () -> put t 1 (-1)));
    Alcotest.test_case "capacity rounded to a power of two" `Quick (fun () ->
        (* Entries are never deleted, so 1000 puts fill every slot, and
           the keys that still read back are one per slot: 48 rounds
           up to 64. *)
        let t = Flow_table.create ~capacity:48 () in
        for i = 0 to 999 do
          put t i i
        done;
        let resident = List.filter (fun i -> find t i <> None) (List.init 1000 Fun.id) in
        check Alcotest.int "48 -> 64" 64 (List.length resident);
        Alcotest.check_raises "zero" (Invalid_argument "Flow_table.create: capacity must be positive")
          (fun () -> ignore (Flow_table.create ~capacity:0 ())));
    Alcotest.test_case "overflow evicts instead of growing" `Quick (fun () ->
        let t = Flow_table.create ~capacity:32 () in
        for i = 0 to 499 do
          put t i i
        done;
        check Alcotest.bool "evicted" true (Flow_table.evictions t > 0);
        (* Whatever survives must still read back correctly. *)
        let good = ref 0 in
        for i = 0 to 499 do
          match find t i with
          | Some v -> check Alcotest.int "value" i v; incr good
          | None -> ()
        done;
        check Alcotest.bool "some survived" true (!good > 0);
        check Alcotest.bool "bounded" true (!good <= 32));
    qtest ~count:50 "random load: every undisplaced key reads its value"
      QCheck.(int_range 1 400)
      (fun n ->
        let t = Flow_table.create ~capacity:256 () in
        for i = 0 to n - 1 do
          put t i (i * 2)
        done;
        (* find either misses (evicted) or returns exactly what was put *)
        List.for_all
          (fun i -> match find t i with None -> true | Some v -> v = i * 2)
          (List.init n Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Pair_table (int-pair-keyed map)                                      *)
(* ------------------------------------------------------------------ *)

(* Keys from a small space, so probe runs collide, wrap and are torn
   by backward-shift deletion. *)
type pair_op = Put of int * int * int | Del of int * int

let pair_op_gen =
  QCheck.Gen.(
    let key = pair (int_range 0 40) (int_range 0 3) in
    frequency
      [
        (3, map2 (fun (a, b) v -> Put (a, b, v)) key small_nat);
        (2, map (fun (a, b) -> Del (a, b)) key);
      ])

let pair_ops =
  QCheck.make
    ~print:
      (QCheck.Print.list (function
        | Put (a, b, v) -> Printf.sprintf "put(%d,%d)=%d" a b v
        | Del (a, b) -> Printf.sprintf "del(%d,%d)" a b))
    QCheck.Gen.(list_size (int_range 0 600) pair_op_gen)

let pair_table_tests =
  let lookup t a b =
    match Pair_table.find t ~a ~b with -1 -> None | s -> Some (Pair_table.value t s)
  in
  [
    Alcotest.test_case "limbs are distinct keys" `Quick (fun () ->
        let t = Pair_table.create () in
        Pair_table.replace t ~a:1 ~b:2 "x";
        Pair_table.replace t ~a:2 ~b:1 "y";
        check (Alcotest.option Alcotest.string) "(1,2)" (Some "x") (lookup t 1 2);
        check (Alcotest.option Alcotest.string) "(2,1)" (Some "y") (lookup t 2 1);
        check (Alcotest.option Alcotest.string) "(1,1)" None (lookup t 1 1);
        Alcotest.check_raises "negative first limb"
          (Invalid_argument "Pair_table.replace: negative key") (fun () ->
            Pair_table.replace t ~a:(-1) ~b:0 "z"));
    Alcotest.test_case "grows past its initial size, clear keeps it usable" `Quick
      (fun () ->
        let t = Pair_table.create () in
        for i = 0 to 999 do
          Pair_table.replace t ~a:i ~b:(i * 7) i
        done;
        check Alcotest.int "length" 1000 (Pair_table.length t);
        for i = 0 to 999 do
          check (Alcotest.option Alcotest.int) "read back" (Some i) (lookup t i (i * 7))
        done;
        Pair_table.clear t;
        check Alcotest.int "cleared" 0 (Pair_table.length t);
        check Alcotest.bool "gone" false (Pair_table.mem t ~a:5 ~b:35);
        Pair_table.replace t ~a:5 ~b:35 1;
        check (Alcotest.option Alcotest.int) "reinserted" (Some 1) (lookup t 5 35));
    qtest ~count:300 "agrees with Hashtbl over puts and removals" pair_ops (fun ops ->
        let t = Pair_table.create () and model = Hashtbl.create 64 in
        List.for_all
          (fun op ->
            (match op with
            | Put (a, b, v) ->
                Pair_table.replace t ~a ~b v;
                Hashtbl.replace model (a, b) v
            | Del (a, b) ->
                Pair_table.remove t ~a ~b;
                Hashtbl.remove model (a, b));
            Pair_table.length t = Hashtbl.length model
            && List.for_all
                 (fun a ->
                   List.for_all
                     (fun b -> lookup t a b = Hashtbl.find_opt model (a, b))
                     [ 0; 1; 2; 3 ])
                 (List.init 41 Fun.id))
          ops
        &&
        let seen = ref [] in
        Pair_table.iter (fun a b v -> seen := ((a, b), v) :: !seen) t;
        List.sort compare !seen
        = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []));
  ]

let checksum_tests =
  [
    Alcotest.test_case "classic RFC 1071 example" `Quick (fun () ->
        (* 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d *)
        let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
        check Alcotest.int "sum" 0x220d (Checksum.compute b ~pos:0 ~len:8));
    Alcotest.test_case "verify accepts embedded checksum" `Quick (fun () ->
        let b = Bytes.of_string "\x45\x00\x00\x1c\x00\x00\x40\x00\x40\x06\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
        let c = Checksum.compute b ~pos:0 ~len:20 in
        Bytes.set b 10 (Char.chr (c lsr 8));
        Bytes.set b 11 (Char.chr (c land 0xff));
        check Alcotest.bool "valid" true (Checksum.verify b ~pos:0 ~len:20));
    Alcotest.test_case "odd length pads with zero" `Quick (fun () ->
        let b = Bytes.of_string "\xab" in
        check Alcotest.int "one byte" (lnot 0xab00 land 0xffff) (Checksum.compute b ~pos:0 ~len:1));
    Alcotest.test_case "corruption detected" `Quick (fun () ->
        let b = Bytes.make 20 '\x11' in
        let c = Checksum.compute b ~pos:0 ~len:20 in
        Bytes.set b 10 (Char.chr (c lsr 8));
        Bytes.set b 11 (Char.chr (c land 0xff));
        Bytes.set b 0 '\x22';
        check Alcotest.bool "invalid" false (Checksum.verify b ~pos:0 ~len:20));
    qtest ~count:100 "compute-then-verify always holds"
      QCheck.(string_of_size (Gen.int_range 2 64))
      (fun s ->
        let b = Bytes.of_string (s ^ "\x00\x00") in
        let len = Bytes.length b in
        let c = Checksum.compute b ~pos:0 ~len in
        Bytes.set b (len - 2) (Char.chr (c lsr 8));
        Bytes.set b (len - 1) (Char.chr (c land 0xff));
        (* Only even lengths keep the trailing checksum aligned. *)
        len mod 2 <> 0 || Checksum.verify b ~pos:0 ~len);
  ]

(* ------------------------------------------------------------------ *)
(* Token bucket / LZ77 / Stats / Prng                                  *)
(* ------------------------------------------------------------------ *)

let bucket_tests =
  [
    Alcotest.test_case "starts full" `Quick (fun () ->
        let b = Token_bucket.create ~rate_bps:8e9 ~burst_bytes:1000 in
        check Alcotest.bool "admit burst" true (Token_bucket.admit b ~now_ns:0L ~size:1000));
    Alcotest.test_case "rejects above burst" `Quick (fun () ->
        let b = Token_bucket.create ~rate_bps:8e9 ~burst_bytes:100 in
        check Alcotest.bool "too big" false (Token_bucket.admit b ~now_ns:0L ~size:101));
    Alcotest.test_case "refills over time" `Quick (fun () ->
        (* 8 Gbit/s = 1 byte/ns. *)
        let b = Token_bucket.create ~rate_bps:8e9 ~burst_bytes:100 in
        check Alcotest.bool "drain" true (Token_bucket.admit b ~now_ns:0L ~size:100);
        check Alcotest.bool "immediately empty" false (Token_bucket.admit b ~now_ns:0L ~size:50);
        check Alcotest.bool "after 50ns" true (Token_bucket.admit b ~now_ns:50L ~size:50));
    Alcotest.test_case "refill capped at burst" `Quick (fun () ->
        let b = Token_bucket.create ~rate_bps:8e9 ~burst_bytes:100 in
        check Alcotest.bool "full burst" true (Token_bucket.admit b ~now_ns:1_000_000L ~size:100);
        check Alcotest.bool "capped" false (Token_bucket.admit b ~now_ns:1_000_000L ~size:1));
    Alcotest.test_case "rejection does not consume" `Quick (fun () ->
        let b = Token_bucket.create ~rate_bps:8e9 ~burst_bytes:100 in
        ignore (Token_bucket.admit b ~now_ns:0L ~size:60);
        check Alcotest.bool "reject" false (Token_bucket.admit b ~now_ns:0L ~size:60);
        check Alcotest.bool "remaining 40 ok" true (Token_bucket.admit b ~now_ns:0L ~size:40));
    Alcotest.test_case "invalid arguments" `Quick (fun () ->
        Alcotest.check_raises "rate" (Invalid_argument "Token_bucket: rate must be positive")
          (fun () -> ignore (Token_bucket.create ~rate_bps:0.0 ~burst_bytes:1)));
  ]

let lz77_tests =
  [
    Alcotest.test_case "roundtrip simple text" `Quick (fun () ->
        let s = "abcabcabcabc hello hello hello" in
        check Alcotest.string "roundtrip" s (Lz77.decompress (Lz77.compress s)));
    Alcotest.test_case "empty string" `Quick (fun () ->
        check Alcotest.string "empty" "" (Lz77.decompress (Lz77.compress "")));
    Alcotest.test_case "repetitive input shrinks" `Quick (fun () ->
        let s = String.concat "" (List.init 50 (fun _ -> "0123456789")) in
        check Alcotest.bool "smaller" true (String.length (Lz77.compress s) < String.length s));
    Alcotest.test_case "overlapping back-reference (run-length)" `Quick (fun () ->
        let s = String.make 300 'z' in
        check Alcotest.string "roundtrip" s (Lz77.decompress (Lz77.compress s)));
    Alcotest.test_case "compress is deterministic" `Quick (fun () ->
        let s = String.concat "" (List.init 40 (fun i -> Printf.sprintf "%d-ab " i)) in
        check Alcotest.string "same" (Lz77.compress s) (Lz77.compress s));
    Alcotest.test_case "incompressible stream grows only by framing" `Quick (fun () ->
        (* Random-ish bytes: literal runs add 2 bytes per 256. *)
        let s = String.init 600 (fun i -> Char.chr ((i * 79 + 31) land 0xff)) in
        let c = Lz77.compress s in
        check Alcotest.bool "bounded expansion" true
          (String.length c <= String.length s + (2 * ((String.length s / 256) + 1)));
        check Alcotest.string "roundtrip" s (Lz77.decompress c));
    Alcotest.test_case "malformed stream rejected" `Quick (fun () ->
        Alcotest.check_raises "bad opcode" (Invalid_argument "Lz77.decompress: malformed stream")
          (fun () -> ignore (Lz77.decompress "\x07hello")));
    Alcotest.test_case "truncated literal rejected" `Quick (fun () ->
        Alcotest.check_raises "truncated" (Invalid_argument "Lz77.decompress: malformed stream")
          (fun () -> ignore (Lz77.decompress "\x00\x09ab")));
    qtest ~count:150 "compression roundtrips arbitrary bytes"
      QCheck.(string_of_size (Gen.int_range 0 500))
      (fun s -> Lz77.decompress (Lz77.compress s) = s);
  ]

let stats_tests =
  [
    Alcotest.test_case "mean of known values" `Quick (fun () ->
        let s = Stats.create () in
        List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
        check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
        check Alcotest.int "count" 4 (Stats.count s));
    Alcotest.test_case "min and max" `Quick (fun () ->
        let s = Stats.create () in
        List.iter (Stats.add s) [ 3.0; 1.0; 2.0 ];
        check (Alcotest.float 1e-9) "min" 1.0 (Stats.percentile s 0.0);
        check (Alcotest.float 1e-9) "max" 3.0 (Stats.percentile s 100.0));
    Alcotest.test_case "percentile nearest rank" `Quick (fun () ->
        let s = Stats.create () in
        List.iter (Stats.add s) (List.init 100 (fun i -> float_of_int (i + 1)));
        check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile s 50.0);
        check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile s 99.0);
        check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 100.0));
    Alcotest.test_case "empty accumulator raises" `Quick (fun () ->
        let s = Stats.create () in
        check (Alcotest.float 1e-9) "mean 0" 0.0 (Stats.mean s);
        Alcotest.check_raises "percentile" (Invalid_argument "Stats.percentile: empty")
          (fun () -> ignore (Stats.percentile s 50.0)));
    Alcotest.test_case "adding after sorting still works" `Quick (fun () ->
        let s = Stats.create () in
        List.iter (Stats.add s) [ 2.0; 1.0 ];
        ignore (Stats.percentile s 0.0);
        Stats.add s 0.5;
        check (Alcotest.float 1e-9) "new min" 0.5 (Stats.percentile s 0.0));
    Alcotest.test_case "percentile rejects NaN and out-of-range ranks" `Quick (fun () ->
        let s = Stats.create () in
        List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 100.0 ];
        List.iter
          (fun p ->
            Alcotest.check_raises (Printf.sprintf "p=%g" p)
              (Invalid_argument "Stats.percentile: p out of [0,100]") (fun () ->
                ignore (Stats.percentile s p)))
          [ Float.nan; -1.0; 100.5; Float.infinity ]);
  ]

let prng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Prng.create ~seed:1L and b = Prng.create ~seed:1L in
        for _ = 1 to 10 do
          check (Alcotest.float 0.0) "step" (Prng.float a) (Prng.float b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
        check Alcotest.bool "differ" true (Prng.float a <> Prng.float b));
    Alcotest.test_case "float stays in [0,1)" `Quick (fun () ->
        let p = Prng.create ~seed:3L in
        for _ = 1 to 1000 do
          let f = Prng.float p in
          if f < 0.0 || f >= 1.0 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let p = Prng.create ~seed:4L in
        for _ = 1 to 1000 do
          let v = Prng.int p ~bound:7 in
          if v < 0 || v >= 7 then Alcotest.fail "out of bound"
        done);
    Alcotest.test_case "exponential has roughly the right mean" `Quick (fun () ->
        let p = Prng.create ~seed:5L in
        let n = 20000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Prng.exponential p ~mean:10.0
        done;
        let mean = !sum /. float_of_int n in
        if mean < 9.0 || mean > 11.0 then
          Alcotest.failf "mean %.2f outside [9,11]" mean);
    Alcotest.test_case "split produces an independent stream" `Quick (fun () ->
        let a = Prng.create ~seed:6L in
        let b = Prng.split a in
        check Alcotest.bool "differ" true (Prng.float a <> Prng.float b));
    Alcotest.test_case "limb implementation matches the Int64 reference" `Quick
      (fun () ->
        (* The production PRNG carries SplitMix64 in native-int limbs;
           hold it to the boxed Int64 formulation it replaced. Every
           other step is a [split], which seeds a child with all 64
           bits of the step's output; the child's first draw checks
           them. *)
        let golden = 0x9e3779b97f4a7c15L in
        let to_float x =
          Int64.to_float (Int64.shift_right_logical x 11) /. 9007199254740992.0
        in
        let ref_state = ref 0L in
        let ref_next () =
          ref_state := Int64.add !ref_state golden;
          Hashing.mix64 !ref_state
        in
        let ref_float () = to_float (ref_next ()) in
        List.iter
          (fun seed ->
            ref_state := seed;
            let p = Prng.create ~seed in
            for i = 1 to 5000 do
              if i mod 2 = 0 then
                check (Alcotest.float 0.0)
                  (Printf.sprintf "split %Ld/%d" seed i)
                  (to_float (Hashing.mix64 (Int64.add (ref_next ()) golden)))
                  (Prng.float (Prng.split p))
              else
                check (Alcotest.float 0.0)
                  (Printf.sprintf "float %Ld/%d" seed i)
                  (ref_float ()) (Prng.float p)
            done)
          [ 0L; 1L; 7L; 42L; -1L; Int64.min_int; Int64.max_int; 0xdeadbeefL ]);
  ]

let () =
  Alcotest.run "nfp_algo"
    [
      ("ring", ring_tests);
      ("lpm", lpm_tests);
      ("aho_corasick", aho_tests);
      ("aes", aes_tests);
      ("hashing", hashing_tests);
      ("flow_table", flow_table_tests);
      ("pair_table", pair_table_tests);
      ("checksum", checksum_tests);
      ("token_bucket", bucket_tests);
      ("lz77", lz77_tests);
      ("stats", stats_tests);
      ("prng", prng_tests);
    ]
