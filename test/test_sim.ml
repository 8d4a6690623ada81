(* Tests for nfp_sim: the event engine, batching server with
   backpressure, NIC model, and measurement harness. *)

open Nfp_sim

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~delay:30.0 (fun () -> log := 3 :: !log);
        Engine.schedule e ~delay:10.0 (fun () -> log := 1 :: !log);
        Engine.schedule e ~delay:20.0 (fun () -> log := 2 :: !log);
        Engine.run e;
        check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !log);
        check (Alcotest.float 1e-9) "clock" 30.0 (Engine.now e));
    Alcotest.test_case "equal times fire in scheduling order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~delay:5.0 (fun () -> log := "a" :: !log);
        Engine.schedule e ~delay:5.0 (fun () -> log := "b" :: !log);
        Engine.run e;
        check Alcotest.(list string) "fifo ties" [ "a"; "b" ] (List.rev !log));
    Alcotest.test_case "events may schedule more events" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec tick n =
          incr count;
          if n > 0 then Engine.schedule e ~delay:1.0 (fun () -> tick (n - 1))
        in
        Engine.schedule e ~delay:0.0 (fun () -> tick 4);
        Engine.run e;
        check Alcotest.int "five ticks" 5 !count);
    Alcotest.test_case "until stops the clock early" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        Engine.schedule e ~delay:100.0 (fun () -> fired := true);
        Engine.run ~until:50.0 e;
        check Alcotest.bool "not fired" false !fired;
        check (Alcotest.float 1e-9) "clock at deadline" 50.0 (Engine.now e);
        check Alcotest.int "still pending" 1 (Engine.pending e));
    Alcotest.test_case "negative delay rejected" `Quick (fun () ->
        let e = Engine.create () in
        Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
          (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()));
        (* A NaN delay would enter the heap and turn the clock NaN. *)
        Alcotest.check_raises "nan" (Invalid_argument "Engine.schedule: negative delay")
          (fun () -> Engine.schedule e ~delay:Float.nan (fun () -> ())));
    Alcotest.test_case "scheduling in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~delay:10.0 (fun () ->
            Alcotest.check_raises "past"
              (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
                Engine.schedule_at e 5.0 (fun () -> ()));
            Alcotest.check_raises "nan"
              (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
                Engine.schedule_at e Float.nan (fun () -> ())));
        Engine.run e);
    Alcotest.test_case "until before now is rejected, the clock kept" `Quick (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~delay:200.0 ignore;
        Engine.schedule e ~delay:300.0 ignore;
        Engine.run ~until:250.0 e;
        check (Alcotest.float 1e-9) "at the deadline" 250.0 (Engine.now e);
        Alcotest.check_raises "past" (Invalid_argument "Engine.run: until is in the past")
          (fun () -> Engine.run ~until:50.0 e);
        check (Alcotest.float 1e-9) "clock not rewound" 250.0 (Engine.now e);
        Alcotest.check_raises "schedule behind the clock"
          (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
            Engine.schedule_at e 60.0 ignore);
        (* A deadline at the current time is not in the past. *)
        Engine.run ~until:250.0 e;
        check Alcotest.int "still pending" 1 (Engine.pending e));
    Alcotest.test_case "a NaN until is rejected" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        Engine.schedule e ~delay:10.0 (fun () -> fired := true);
        Alcotest.check_raises "nan" (Invalid_argument "Engine.run: until is in the past")
          (fun () -> Engine.run ~until:Float.nan e);
        check Alcotest.bool "nothing ran" false !fired;
        check (Alcotest.float 1e-9) "clock" 0.0 (Engine.now e));
    Alcotest.test_case "max_events bounds execution" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec forever () =
          incr count;
          Engine.schedule e ~delay:1.0 forever
        in
        Engine.schedule e ~delay:0.0 forever;
        Engine.run ~max_events:10 e;
        check Alcotest.int "bounded" 10 !count);
  ]

(* The firing log of one script of events, each either scheduled or
   armed as a timer: a callback re-arming its own timer ("r", three
   times) and events queued from inside a callback included. *)
let interleaving ~timers =
  let e = Engine.create () in
  let log = ref [] in
  let note name () = log := (name, Engine.now e) :: !log in
  let arm name ~delay f =
    if timers then Engine.arm_timer (Engine.timer e ~name f) ~delay
    else Engine.schedule e ~delay f
  in
  let ticks = ref 0 in
  let rec r =
    lazy
      (Engine.timer e ~name:"r" (fun () ->
           note "r" ();
           incr ticks;
           if !ticks < 3 then Engine.arm_timer (Lazy.force r) ~delay:2.0))
  in
  let rec r_scheduled () =
    note "r" ();
    incr ticks;
    if !ticks < 3 then Engine.schedule e ~delay:2.0 r_scheduled
  in
  Engine.schedule e ~delay:5.0 (note "a");
  arm "A" ~delay:5.0 (note "A");
  if timers then Engine.arm_timer (Lazy.force r) ~delay:1.0
  else Engine.schedule e ~delay:1.0 r_scheduled;
  Engine.schedule e ~delay:5.0 (note "b");
  arm "B" ~delay:3.0 (note "B");
  Engine.schedule e ~delay:3.0 (fun () ->
      note "c" ();
      arm "C" ~delay:2.0 (note "C");
      Engine.schedule e ~delay:2.0 (note "d"));
  Engine.run e;
  List.rev !log

(* A timer that re-arms itself forever; [other] also queues one ordinary
   event far in the future. *)
let spinner ?other e =
  Option.iter (fun at -> Engine.schedule_at e at ignore) other;
  let rec spin =
    lazy (Engine.timer e ~name:"spinner" (fun () -> Engine.arm_timer (Lazy.force spin) ~delay:1.0))
  in
  Engine.arm_timer (Lazy.force spin) ~delay:1.0

(* Minor words allocated by [n] firings of a self-re-arming timer, after
   a first round that grows the event heap. *)
let timer_words n =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec tm =
    lazy
      (Engine.timer e ~name:"tick" (fun () ->
           incr fired;
           if !fired < n then Engine.arm_timer (Lazy.force tm) ~delay:1.0))
  in
  let tm = Lazy.force tm in
  Engine.arm_timer tm ~delay:1.0;
  Engine.run e;
  fired := 0;
  let before = Gc.minor_words () in
  Engine.arm_timer tm ~delay:1.0;
  Engine.run e;
  Gc.minor_words () -. before

let timer_tests =
  [
    Alcotest.test_case "arming an armed timer queues nothing more" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref 0 in
        let tm = Engine.timer e ~name:"t" (fun () -> incr fired) in
        Engine.arm_timer tm ~delay:10.0;
        Engine.arm_timer tm ~delay:5.0;
        check Alcotest.bool "armed" true (Engine.timer_armed tm);
        check Alcotest.int "one event queued" 1 (Engine.pending e);
        Engine.run e;
        check Alcotest.int "fired once" 1 !fired;
        check (Alcotest.float 1e-9) "at the first arming's time" 10.0 (Engine.now e);
        check Alcotest.bool "disarmed" false (Engine.timer_armed tm));
    Alcotest.test_case "timers and schedule share one (time, seq) order" `Quick
      (fun () ->
        let expected =
          [
            ("r", 1.0);
            ("B", 3.0);
            ("c", 3.0);
            ("r", 3.0);
            ("a", 5.0);
            ("A", 5.0);
            ("b", 5.0);
            ("C", 5.0);
            ("d", 5.0);
            ("r", 5.0);
          ]
        in
        let log = Alcotest.(list (pair string (float 1e-9))) in
        check log "scheduled" expected (interleaving ~timers:false);
        check log "timers" expected (interleaving ~timers:true));
    Alcotest.test_case "a lone re-arming timer raises Livelock with its name" `Quick
      (fun () ->
        let e = Engine.create () in
        spinner e;
        Alcotest.check_raises "livelock" (Engine.Livelock "spinner") (fun () ->
            Engine.run e);
        check (Alcotest.float 1e-9) "after the tolerated streak"
          (float_of_int (Engine.livelock_streak + 1))
          (Engine.now e));
    Alcotest.test_case "a queued ordinary event keeps the guard quiet" `Quick (fun () ->
        let e = Engine.create () in
        let horizon = float_of_int (3 * Engine.livelock_streak) in
        spinner ~other:(2.0 *. horizon) e;
        Engine.run ~until:horizon e;
        check Alcotest.int "both still queued" 2 (Engine.pending e));
    (* A line's many sends share one heap entry, and that entry counts
       as an ordinary event, as one closure per send would. *)
    Alcotest.test_case "a line holding sends keeps the guard quiet" `Quick (fun () ->
        let e = Engine.create () in
        let horizon = float_of_int (3 * Engine.livelock_streak) in
        let delivered = ref 0 in
        let l = Engine.line e ~delay:(2.0 *. horizon) (fun _ _ _ -> incr delivered) in
        for i = 1 to 1000 do
          Engine.send l i () 0
        done;
        spinner e;
        Engine.run ~until:horizon e;
        check Alcotest.int "the timer and the line's one entry" 2 (Engine.pending e);
        check Alcotest.int "nothing delivered yet" 0 !delivered);
    (* Holds for the release build the repository selects in
       dune-workspace, like test_batch's budgets. *)
    Alcotest.test_case "arming and firing a timer allocates nothing" `Quick (fun () ->
        let per_firing = (timer_words 20_000 -. timer_words 10_000) /. 10_000.0 in
        if per_firing > 0.0 then
          Alcotest.failf "allocation regression: %.3f minor words per timer firing (budget 0)"
            per_firing);
  ]

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)
(* ------------------------------------------------------------------ *)

(* A script of batches: at each batch's time, each op either sends
   [(payload, hops)] on one of the lines or schedules a plain event
   [delay] ahead. A delivery with hops left sends again, so sends are
   also made from inside firings: on the next line, or with [stay] on
   its own line, which is then often left empty just as the send is
   made. A staying delivery also schedules a plain event at its line's
   delay, before or after that send, so the two fire at one time. *)
type line_op = Send of int * int * int * bool | Plain of float * int

(* A point where the run stops and resumes: after [n] more firings, or
   [dt] past the clock. *)
type line_split = Events of int | Until of float

(* A script's lines (1-4, with distinct delays) and its batches, with
   the splits of its run. Besides sends that hop across lines, it draws
   the edge cases of a line's single heap entry: plain events at the
   lines' own delays, so they collide with line sends at equal times;
   sends that stay on their line, re-arming it from inside its own
   delivery; and runs split by [max_events] and [until]. *)
let line_script_gen =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* delays = shuffle_l [ 0.0; 1.0; 2.0; 3.0; 5.0; 8.0 ] in
    let delays = Array.of_list (List.filteri (fun i _ -> i < n) delays) in
    let send ~stay hops = map3 (fun k p hops -> Send (k mod n, p, hops, stay)) (int_bound 3) small_nat hops in
    let plain delay = map2 (fun d p -> Plain (d, p)) delay small_nat in
    let op =
      frequency
        [
          (3, send ~stay:false (int_bound 2));
          (2, send ~stay:true (int_range 1 4));
          (1, plain (oneofl [ 0.0; 1.0; 2.0; 3.0 ]));
          (1, plain (oneofa delays));
        ]
    in
    let split =
      oneof
        [
          map (fun k -> Events k) (int_bound 8);
          map (fun dt -> Until dt) (oneofl [ 0.0; 0.5; 1.0; 2.0; 3.0; 7.5 ]);
        ]
    in
    let* batches = list_size (int_range 1 20) (pair (int_bound 3) (list_size (int_range 1 6) op)) in
    let+ splits = list_size (int_bound 6) split in
    (delays, batches, splits))

let print_line_script (delays, batches, splits) =
  let op = function
    | Send (k, p, h, stay) -> Printf.sprintf "send(%d,%d,%d%s)" k p h (if stay then ",stay" else "")
    | Plain (d, p) -> Printf.sprintf "plain(%g,%d)" d p
  in
  let split = function Events n -> Printf.sprintf "events %d" n | Until dt -> Printf.sprintf "until +%g" dt in
  Printf.sprintf "delays [%s]; %s; splits [%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_float delays)))
    (String.concat " | "
       (List.map (fun (dt, ops) -> Printf.sprintf "+%d: %s" dt (String.concat " " (List.map op ops))) batches))
    (String.concat "; " (List.map split splits))

(* The firing trace of a script: (time, firing seq, line, payload) per
   delivery or plain event, with each send on a line ([lines]) or as
   one closure per send scheduled at the line's delay, the run stopped
   and resumed at each split. Also returns the most by which
   [Engine.pending] ever exceeded the queued plain events plus the
   number of lines, checked at every firing and split (0 or less when
   each line holds at most one heap entry). *)
let line_trace ~lines (delays, batches, splits) =
  let e = Engine.create () in
  let log = ref [] in
  let plain = ref 0 and excess = ref min_int in
  let bound () = excess := max !excess (Engine.pending e - (!plain + Array.length delays)) in
  let counted f () =
    decr plain;
    bound ();
    f ()
  in
  let schedule ~delay f =
    incr plain;
    Engine.schedule e ~delay (counted f)
  in
  let note k p = log := (Engine.now e, Engine.firing e, k, p) :: !log in
  let send = ref (fun _ _ _ _ -> ()) in
  let deliver k p hops stay =
    bound ();
    note k p;
    if hops > 0 then
      if stay then begin
        let echo () = schedule ~delay:delays.(k) (fun () -> note (-1) p) in
        if hops mod 2 = 1 then echo ();
        !send k p (hops - 1) stay;
        if hops mod 2 = 0 then echo ()
      end
      else !send ((k + 1) mod Array.length delays) p (hops - 1) stay
  in
  let ls =
    Array.mapi
      (fun k delay -> Engine.line e ~delay (fun p hops stay -> deliver k p hops (stay = 1)))
      delays
  in
  (send :=
     fun k p hops stay ->
       if lines then Engine.send ls.(k) p hops (Bool.to_int stay)
       else schedule ~delay:delays.(k) (fun () -> deliver k p hops stay));
  let run_op = function
    | Send (k, p, hops, stay) -> !send k p hops stay
    | Plain (delay, p) -> schedule ~delay (fun () -> note (-1) p)
  in
  ignore
    (List.fold_left
       (fun t (dt, ops) ->
         let t = t +. float_of_int dt in
         incr plain;
         Engine.schedule_at e t (counted (fun () -> List.iter run_op ops));
         t)
       0.0 batches);
  List.iter
    (fun split ->
      (match split with
      | Events n -> Engine.run ~max_events:n e
      | Until dt -> Engine.run ~until:(Engine.now e +. dt) e);
      bound ())
    splits;
  Engine.run e;
  (List.rev !log, !excess)

(* Minor words allocated by [n] send-and-fire rounds on a line already
   grown to one send in flight. *)
let line_words n =
  let e = Engine.create () in
  let l = Engine.line e ~delay:5.0 (fun _ _ _ -> ()) in
  let payload = "payload" in
  let round () =
    Engine.send l 1L payload 1;
    Engine.run ~max_events:1 e
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    round ()
  done;
  Gc.minor_words () -. before

(* How many of [n] boxed payloads [ref i], each handed to [step] and
   then dropped by the caller, are still reachable after a full major
   GC. *)
let retained n step =
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set w i (Some payload);
    step payload
  done;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr alive
  done;
  !alive

let line_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"a line fires each send at a closure's (time, seq)"
         (QCheck.make ~print:print_line_script line_script_gen)
         (fun script ->
           let trace, excess = line_trace ~lines:true script in
           if excess > 0 then
             QCheck.Test.fail_reportf "pending exceeded plain events + lines by %d" excess;
           trace = fst (line_trace ~lines:false script)));
    Alcotest.test_case "a line keeps its order across growth" `Quick (fun () ->
        let e = Engine.create () in
        let got = ref [] in
        let l = Engine.line e ~delay:10.0 (fun a b tag -> got := (a, b, tag) :: !got) in
        for i = 0 to 99 do
          Engine.send l i (string_of_int i) (-i)
        done;
        Engine.run ~until:10.0 e;
        (* The head now sits mid-array: these sends wrap around it and
           grow the line again. *)
        for i = 100 to 299 do
          Engine.send l i (string_of_int i) (-i)
        done;
        Engine.run e;
        check Alcotest.(list (triple int string int)) "in send order"
          (List.init 300 (fun i -> (i, string_of_int i, -i)))
          (List.rev !got));
    Alcotest.test_case "a negative or NaN line delay is rejected" `Quick (fun () ->
        let e = Engine.create () in
        List.iter
          (fun delay ->
            Alcotest.check_raises "delay" (Invalid_argument "Engine.line: negative delay")
              (fun () -> ignore (Engine.line e ~delay (fun () () _ -> ()))))
          [ -1.0; Float.nan ]);
    Alcotest.test_case "a line keeps no payload it has fired" `Quick (fun () ->
        (* 1,000 payloads, each sent and fired before the next: one in
           flight at most, so at most that slot and the fill element
           may keep a payload alive. *)
        let e = Engine.create () in
        let l = Engine.line e ~delay:5.0 (fun _ () _ -> ()) in
        let alive =
          retained 1_000 (fun payload ->
              Engine.send l payload () 0;
              Engine.run e)
        in
        if alive > 2 then
          Alcotest.failf "%d of 1000 payloads still reachable (at most 2)" alive;
        ignore (Sys.opaque_identity l));
    (* Holds for the release build the repository selects in
       dune-workspace, like test_batch's budgets. *)
    Alcotest.test_case "sending on and firing a line allocates nothing" `Quick (fun () ->
        let words = line_words 10_000 in
        if words > 0.0 then
          Alcotest.failf "allocation regression: %.0f minor words over 10000 sends (budget 0)"
            words);
  ]

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

(* A server in the shape these tests were written for: a float service
   time and one emission thunk per executed job. *)
let thunk_server ~engine ~name ~ring_capacity ~batch ?jitter ?fault ~service_ns ~execute () =
  Server.create ~engine ~name ~ring_capacity ~batch ?jitter ?fault
    ~service_ns:(fun job (cell : Server.cell) -> cell.ns <- service_ns job)
    ~execute:(fun job -> [| execute job |])
    ~emit:Server.call ()

let simple_server engine ~service ?(ring = 8) ?(batch = 4) sink =
  thunk_server ~engine ~name:"s" ~ring_capacity:ring ~batch
    ~service_ns:(fun _ -> service)
    ~execute:(fun job ->
      fun () ->
        sink job;
        true)
    ()

let server_tests =
  [
    Alcotest.test_case "processes jobs in order" `Quick (fun () ->
        let e = Engine.create () in
        let out = ref [] in
        let s = simple_server e ~service:10.0 (fun j -> out := j :: !out) in
        List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2; 3 ];
        Engine.run e;
        check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !out);
        check Alcotest.int "processed" 3 (Server.processed s));
    Alcotest.test_case "batch flushes at completion time" `Quick (fun () ->
        let e = Engine.create () in
        let times = ref [] in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4
            ~service_ns:(fun _ -> 10.0)
            ~execute:(fun _ ->
              fun () ->
                times := Engine.now e :: !times;
                true)
            ()
        in
        List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2; 3 ];
        Engine.run e;
        (* Job 1 starts its own batch (flushed at 10ns); jobs 2 and 3
           arrive while the core is busy and flush together at 30ns. *)
        check Alcotest.(list (float 1e-6)) "flush times" [ 10.0; 30.0; 30.0 ]
          (List.rev !times));
    Alcotest.test_case "full ring rejects" `Quick (fun () ->
        let e = Engine.create () in
        let s = simple_server e ~ring:2 ~service:1000.0 (fun _ -> ()) in
        (* The first offer starts a batch immediately, draining the ring. *)
        check Alcotest.bool "1" true (Server.offer s 1);
        check Alcotest.bool "2" true (Server.offer s 2);
        check Alcotest.bool "3" true (Server.offer s 3);
        check Alcotest.bool "4 refused" false (Server.offer s 4);
        check Alcotest.int "rejected" 1 (Server.rejected s));
    Alcotest.test_case "backpressure stalls until downstream drains" `Quick (fun () ->
        let e = Engine.create () in
        (* Downstream: slow, tiny ring. *)
        let received = ref 0 in
        let down = simple_server e ~ring:1 ~batch:1 ~service:100.0 (fun _ -> incr received) in
        (* Upstream emits into downstream with retries. *)
        let up =
          thunk_server ~engine:e ~name:"up" ~ring_capacity:16 ~batch:4
            ~service_ns:(fun _ -> 1.0)
            ~execute:(fun job -> fun () -> Server.offer down job)
            ()
        in
        for j = 1 to 8 do
          ignore (Server.offer up j)
        done;
        Engine.run e;
        (* Refused offers are retried, not lost: every job arrives. *)
        check Alcotest.int "all arrive eventually" 8 !received;
        check Alcotest.bool "upstream stalled" true (Server.stalled_ns up > 0.0));
    Alcotest.test_case "busy time accumulates service" `Quick (fun () ->
        let e = Engine.create () in
        let s = simple_server e ~service:7.0 (fun _ -> ()) in
        List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2 ];
        Engine.run e;
        check (Alcotest.float 1e-6) "busy" 14.0 (Server.busy_ns s));
    Alcotest.test_case "jitter keeps runs deterministic" `Quick (fun () ->
        let run () =
          let e = Engine.create () in
          let total = ref 0.0 in
          let s =
            thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:2
              ~jitter:(0.2, Nfp_algo.Prng.create ~seed:5L)
              ~service_ns:(fun _ -> 10.0)
              ~execute:(fun _ ->
                fun () ->
                  total := Engine.now e;
                  true)
              ()
          in
          List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2; 3; 4 ];
          Engine.run e;
          !total
        in
        check (Alcotest.float 1e-9) "reproducible" (run ()) (run ()));
  ]

(* ------------------------------------------------------------------ *)
(* Injected faults at the server level                                 *)
(* ------------------------------------------------------------------ *)

let core_of plan name = Option.get (Fault.for_core plan name)

let fault_tests =
  [
    Alcotest.test_case "crash abandons the in-flight batch" `Quick (fun () ->
        let e = Engine.create () in
        let delivered = ref 0 in
        let fault = core_of (Fault.plan [ Fault.crash ~at_ns:150.0 "s" ]) "s" in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4 ~fault
            ~service_ns:(fun _ -> 100.0)
            ~execute:(fun _ ->
              fun () ->
                incr delivered;
                true)
            ()
        in
        (* Job 1 is its own batch (done at 100 ns); 2..4 batch together
           and would complete at 400 ns — the crash at 150 ns outlives
           them, and their emissions must die with the core. *)
        List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2; 3; 4 ];
        Engine.run e;
        check Alcotest.int "first batch delivered" 1 !delivered;
        (* The crash reclaims the batch as casualties: held for the
           recovery policy to decide, not yet counted lost. *)
        check Alcotest.int "nothing flushed yet" 0 (Server.flushed s);
        check
          Alcotest.(pair int int)
          "casualties held" (3, 0) (Server.casualty_counts s);
        check Alcotest.int "one crash" 1 (Server.crashes s);
        check Alcotest.bool "core is down" true (Server.is_down s);
        (* A lossy revive discards them into [flushed]. *)
        check Alcotest.int "flush discards them" 3 (Server.revive s);
        check Alcotest.int "rest flushed" 3 (Server.flushed s));
    Alcotest.test_case "lossless revive re-admits reclaimed work in order" `Quick
      (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        let fault = core_of (Fault.plan [ Fault.crash ~at_ns:150.0 "s" ]) "s" in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4 ~fault
            ~service_ns:(fun _ -> 100.0)
            ~execute:(fun j ->
              fun () ->
                order := j :: !order;
                true)
            ()
        in
        List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2; 3; 4 ];
        (* Backlog lands in the ring while the core is down. *)
        Engine.schedule e ~delay:200.0 (fun () -> ignore (Server.offer s 5));
        Engine.schedule e ~delay:400.0 (fun () ->
            check Alcotest.int "re-admits everything" 0 (Server.revive ~flush:false s));
        Engine.run e;
        check Alcotest.(list int) "processing order preserved" [ 1; 2; 3; 4; 5 ]
          (List.rev !order);
        check Alcotest.int "nothing flushed" 0 (Server.flushed s);
        check Alcotest.int "all processed" 5 (Server.processed s));
    Alcotest.test_case "drop fault loses jobs at the configured rate" `Quick (fun () ->
        let run () =
          let e = Engine.create () in
          let delivered = ref 0 in
          let fault = core_of (Fault.plan [ Fault.drop ~probability:0.5 "s" ]) "s" in
          let s =
            thunk_server ~engine:e ~name:"s" ~ring_capacity:2048 ~batch:32 ~fault
              ~service_ns:(fun _ -> 1.0)
              ~execute:(fun _ ->
                fun () ->
                  incr delivered;
                  true)
              ()
          in
          for j = 1 to 1000 do
            ignore (Server.offer s j)
          done;
          Engine.run e;
          (!delivered, Server.fault_drops s)
        in
        let delivered, drops = run () in
        check Alcotest.int "conserved" 1000 (delivered + drops);
        check Alcotest.bool
          (Printf.sprintf "rate plausible (%d/1000)" drops)
          true
          (drops > 350 && drops < 650);
        (* The drop stream is seeded from the plan, not ambient state. *)
        check Alcotest.(pair int int) "deterministic" (delivered, drops) (run ()));
    Alcotest.test_case "slowdown scales service time from its onset" `Quick (fun () ->
        let e = Engine.create () in
        let fault = core_of (Fault.plan [ Fault.slowdown ~at_ns:0.0 ~factor:3.0 "s" ]) "s" in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:1 ~fault
            ~service_ns:(fun _ -> 10.0)
            ~execute:(fun _ -> fun () -> true)
            ()
        in
        (* Offer after the engine starts so the slowdown is installed. *)
        Engine.schedule e ~delay:5.0 (fun () ->
            List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2 ]);
        Engine.run e;
        check (Alcotest.float 1e-6) "3x busy time" 60.0 (Server.busy_ns s));
    Alcotest.test_case "hang parks the core, work resumes afterwards" `Quick (fun () ->
        let e = Engine.create () in
        let done_at = ref 0.0 in
        let fault =
          core_of (Fault.plan [ Fault.hang ~at_ns:0.0 ~duration_ns:500.0 "s" ]) "s"
        in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4 ~fault
            ~service_ns:(fun _ -> 10.0)
            ~execute:(fun _ ->
              fun () ->
                done_at := Engine.now e;
                true)
            ()
        in
        Engine.schedule e ~delay:5.0 (fun () -> ignore (Server.offer s 1));
        Engine.run e;
        check Alcotest.int "processed" 1 (Server.processed s);
        check Alcotest.bool "held until the hang ended" true (!done_at >= 500.0);
        check Alcotest.bool "core is back up" true (not (Server.is_down s)));
    Alcotest.test_case "kill / revive with flush drops the backlog" `Quick (fun () ->
        let e = Engine.create () in
        let delivered = ref 0 in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4
            ~service_ns:(fun _ -> 10.0)
            ~execute:(fun _ ->
              fun () ->
                incr delivered;
                true)
            ()
        in
        Server.kill s;
        (* The ring is shared memory: it outlives its dead consumer. *)
        List.iter (fun j -> ignore (Server.offer s j)) [ 1; 2; 3 ];
        check Alcotest.bool "down" true (Server.is_down s);
        check Alcotest.int "backlog counted lost" 3 (Server.revive s);
        Engine.run e;
        check Alcotest.int "flushed jobs never run" 0 !delivered;
        List.iter (fun j -> ignore (Server.offer s j)) [ 4; 5 ];
        Engine.run e;
        check Alcotest.int "fresh work flows again" 2 !delivered);
    Alcotest.test_case "a crashed breath's completion is stale after a revive" `Quick
      (fun () ->
        (* Job 1's breath is due at 100 ns. The core dies at 50 ns and
           comes back at 60 ns, starting a new breath on the reclaimed
           job, due at 160 ns. The old completion still fires at 100 ns
           and must do nothing. *)
        let e = Engine.create () in
        let emitted = ref [] in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4
            ~service_ns:(fun _ -> 100.0)
            ~execute:(fun j () ->
              emitted := (j, Engine.now e) :: !emitted;
              true)
            ()
        in
        ignore (Server.offer s 1);
        Engine.schedule e ~delay:50.0 (fun () -> Server.kill s);
        Engine.schedule e ~delay:60.0 (fun () ->
            ignore (Server.revive ~flush:false s);
            check Alcotest.bool "new breath in flight" true (Server.is_busy s));
        Engine.run e;
        check
          Alcotest.(list (pair int (float 1e-9)))
          "emitted once, at the new breath's time" [ (1, 160.0) ] !emitted;
        check Alcotest.int "processed once" 1 (Server.processed s));
    Alcotest.test_case "a paused breath's completion is stale after unpause" `Quick
      (fun () ->
        let e = Engine.create () in
        let emitted = ref [] in
        let s =
          thunk_server ~engine:e ~name:"s" ~ring_capacity:8 ~batch:4
            ~service_ns:(fun _ -> 100.0)
            ~execute:(fun j () ->
              emitted := (j, Engine.now e) :: !emitted;
              true)
            ()
        in
        ignore (Server.offer s 1);
        Engine.schedule e ~delay:50.0 (fun () -> Server.pause s);
        Engine.schedule e ~delay:60.0 (fun () ->
            Server.unpause s;
            check Alcotest.bool "new breath in flight" true (Server.is_busy s));
        Engine.run e;
        check
          Alcotest.(list (pair int (float 1e-9)))
          "emitted once, at the new breath's time" [ (1, 160.0) ] !emitted;
        check Alcotest.int "processed once" 1 (Server.processed s));
    Alcotest.test_case "plans match cores by name or prefix" `Quick (fun () ->
        let p = Fault.plan [ Fault.crash ~at_ns:1.0 "mid1:*" ] in
        check Alcotest.bool "mid1:vpn matches" true (Fault.for_core p "mid1:vpn" <> None);
        check Alcotest.bool "mid2:vpn does not" true (Fault.for_core p "mid2:vpn" = None);
        check Alcotest.bool "empty plan matches nothing" true
          (Fault.for_core Fault.empty "mid1:vpn" = None));
    Alcotest.test_case "storm is deterministic and scales with the horizon" `Quick
      (fun () ->
        let mk h = Fault.storm ~seed:7L ~cores:[ "a"; "b" ] ~mtbf_ns:1e6 ~horizon_ns:h () in
        check Alcotest.bool "same seed, same storm" true (mk 1e7 = mk 1e7);
        let events (p : Fault.plan) =
          List.fold_left (fun acc (s : Fault.spec) -> acc + List.length s.events) 0 p.specs
        in
        check Alcotest.bool "longer horizon, more crashes" true (events (mk 1e8) > events (mk 1e6));
        check Alcotest.bool "different seed, different storm" true
          (mk 1e7 <> Fault.storm ~seed:8L ~cores:[ "a"; "b" ] ~mtbf_ns:1e6 ~horizon_ns:1e7 ()));
    Alcotest.test_case "storm rejects a NaN mean and a non-finite horizon" `Quick (fun () ->
        (* Each of these used to loop, allocating crash events until
           memory ran out. *)
        let storm ~mtbf_ns ~horizon_ns () =
          ignore (Fault.storm ~cores:[ "a" ] ~mtbf_ns ~horizon_ns ())
        in
        Alcotest.check_raises "nan mtbf" (Invalid_argument "Fault.storm: mtbf_ns must be positive")
          (storm ~mtbf_ns:Float.nan ~horizon_ns:1e6);
        List.iter
          (fun h ->
            Alcotest.check_raises (Printf.sprintf "horizon %g" h)
              (Invalid_argument "Fault.storm: horizon_ns must be finite")
              (storm ~mtbf_ns:1e3 ~horizon_ns:h))
          [ Float.nan; Float.infinity ]);
    Alcotest.test_case "crash, hang and slowdown reject bad times, windows and factors"
      `Quick (fun () ->
        (* Refused when the plan is built: a negative or NaN time used
           to raise from the engine mid-run, and a negative window
           silently lost the packets it wedged. *)
        let rejects msg build =
          Alcotest.check_raises msg (Invalid_argument ("Fault." ^ msg)) (fun () ->
              ignore (build ()))
        in
        List.iter
          (fun bad ->
            rejects "crash: at_ns must be >= 0" (fun () -> Fault.crash ~at_ns:bad "a");
            rejects "hang: at_ns must be >= 0" (fun () ->
                Fault.hang ~at_ns:bad ~duration_ns:1.0 "a");
            rejects "hang: duration_ns must be >= 0" (fun () ->
                Fault.hang ~at_ns:0.0 ~duration_ns:bad "a");
            rejects "slowdown: at_ns must be >= 0" (fun () ->
                Fault.slowdown ~at_ns:bad ~factor:2.0 "a"))
          [ -1.0; Float.nan ];
        (* An infinite time parked the crash at +inf: the run ended
           there, with an infinite duration. *)
        let inf = Float.infinity in
        rejects "crash: at_ns must be finite" (fun () -> Fault.crash ~at_ns:inf "a");
        rejects "hang: at_ns must be finite" (fun () -> Fault.hang ~at_ns:inf ~duration_ns:1.0 "a");
        rejects "hang: duration_ns must be finite" (fun () ->
            Fault.hang ~at_ns:0.0 ~duration_ns:inf "a");
        rejects "slowdown: at_ns must be finite" (fun () ->
            Fault.slowdown ~at_ns:inf ~factor:2.0 "a");
        List.iter
          (fun bad ->
            rejects "slowdown: factor must be positive" (fun () ->
                Fault.slowdown ~at_ns:0.0 ~factor:bad "a"))
          [ 0.0; -2.0; Float.nan ];
        ignore (Fault.hang ~at_ns:0.0 ~duration_ns:0.0 "a");
        ignore (Fault.slowdown ~at_ns:0.0 ~factor:0.5 "a"));
    Alcotest.test_case "link faults reject out-of-range probabilities, times and cycles"
      `Quick (fun () ->
        (* Refused when the plan is built: a negative gap would raise
           mid-run, a NaN would disarm its fault, and zero cycles would
           run one window. *)
        let nan = Float.nan in
        let rejects msg build =
          Alcotest.check_raises msg (Invalid_argument ("Fault." ^ msg)) (fun () ->
              ignore (build ()))
        in
        let prob who = who ^ ": probability must be in [0, 1]" in
        rejects (prob "drop") (fun () -> Fault.drop ~probability:nan "a");
        rejects (prob "drop") (fun () -> Fault.drop ~probability:1.5 "a");
        rejects (prob "loss") (fun () -> Fault.loss ~probability:nan "a");
        rejects (prob "loss") (fun () -> Fault.loss ~probability:(-0.1) "a");
        rejects (prob "duplicate") (fun () -> Fault.duplicate ~probability:2.0 "a");
        rejects "duplicate: gap_ns must be >= 0" (fun () ->
            Fault.duplicate ~gap_ns:(-1.0) ~probability:0.5 "*");
        rejects "duplicate: gap_ns must be >= 0" (fun () ->
            Fault.duplicate ~gap_ns:nan ~probability:0.5 "*");
        rejects (prob "jumble") (fun () -> Fault.jumble ~probability:nan ~span_ns:10.0 "a");
        rejects "jumble: span_ns must be >= 0" (fun () ->
            Fault.jumble ~probability:0.5 ~span_ns:(-1.0) "a");
        rejects "jumble: span_ns must be >= 0" (fun () ->
            Fault.jumble ~probability:0.5 ~span_ns:nan "a");
        (* An infinite gap or span parks a copy at +inf, which the run
           then ends at. *)
        rejects "duplicate: gap_ns must be finite" (fun () ->
            Fault.duplicate ~gap_ns:Float.infinity ~probability:0.5 "*");
        rejects "jumble: span_ns must be finite" (fun () ->
            Fault.jumble ~probability:0.5 ~span_ns:Float.infinity "a");
        rejects "burst: p_enter must be in [0, 1]" (fun () ->
            Fault.burst ~p_enter:nan ~p_exit:0.5 ~drop:0.5 "a");
        rejects "burst: p_exit must be in [0, 1]" (fun () ->
            Fault.burst ~p_enter:0.5 ~p_exit:(-0.5) ~drop:0.5 "a");
        rejects "burst: drop must be in [0, 1]" (fun () ->
            Fault.burst ~p_enter:0.5 ~p_exit:0.5 ~drop:1.1 "a");
        rejects "partition: at_ns must be >= 0" (fun () ->
            Fault.partition ~at_ns:(-1.0) ~duration_ns:10.0 "a");
        rejects "partition: duration_ns must be >= 0" (fun () ->
            Fault.partition ~at_ns:0.0 ~duration_ns:nan "a");
        let flapping ?(at_ns = 0.0) ?(down_ns = 1.0) ?(up_ns = 1.0) ?(cycles = 2) () =
          Fault.flapping ~at_ns ~down_ns ~up_ns ~cycles "a"
        in
        rejects "flapping: at_ns must be >= 0" (flapping ~at_ns:nan);
        rejects "flapping: down_ns must be >= 0" (flapping ~down_ns:(-1.0));
        rejects "flapping: up_ns must be >= 0" (flapping ~up_ns:nan);
        (* An infinite window length makes the first window [nan, nan]. *)
        rejects "flapping: down_ns must be finite" (flapping ~down_ns:Float.infinity);
        rejects "flapping: up_ns must be finite" (flapping ~up_ns:Float.infinity);
        rejects "flapping: cycles must be >= 1" (flapping ~cycles:0));
    Alcotest.test_case "surge rejects a NaN base and NaN factors" `Quick (fun () ->
        Alcotest.check_raises "base" (Invalid_argument "Fault.surge: base_mpps must be positive")
          (fun () -> ignore (Fault.surge ~base_mpps:Float.nan []));
        List.iter
          (fun shape ->
            Alcotest.check_raises "factor" (Invalid_argument "Fault.surge: factor must be positive")
              (fun () -> ignore (Fault.surge ~base_mpps:1.0 [ shape ])))
          [
            Fault.Step { at_ns = 0.0; factor = Float.nan };
            Fault.Spike { at_ns = 0.0; duration_ns = 1.0; factor = Float.nan };
            Fault.Ramp { from_ns = 0.0; to_ns = 1.0; factor = Float.nan };
          ]);
    Alcotest.test_case "surge rejects bad times and infinite rates" `Quick (fun () ->
        (* A NaN ramp start used to pass and then fail mid-run with a
           negative engine delay; NaN step and spike times made the
           shape silently inert; an infinite factor or base rate
           collapsed the arrival gaps. *)
        let nan = Float.nan and inf = Float.infinity in
        let step at_ns factor = Fault.Step { at_ns; factor } in
        let spike at_ns duration_ns factor = Fault.Spike { at_ns; duration_ns; factor } in
        let ramp from_ns to_ns factor = Fault.Ramp { from_ns; to_ns; factor } in
        List.iter
          (fun (msg, shape) ->
            Alcotest.check_raises msg (Invalid_argument ("Fault.surge: " ^ msg)) (fun () ->
                ignore (Fault.surge ~base_mpps:1.0 [ shape ])))
          [
            ("at_ns must be >= 0", step nan 2.0);
            ("at_ns must be >= 0", step (-1.0) 2.0);
            ("at_ns must be >= 0", spike nan 1.0 2.0);
            ("duration_ns must be >= 0", spike 0.0 nan 2.0);
            ("duration_ns must be >= 0", spike 0.0 (-1.0) 2.0);
            ("from_ns must be >= 0", ramp nan 1.0 2.0);
            ("from_ns must be >= 0", ramp (-1.0) 1.0 2.0);
            ("to_ns must be >= from_ns", ramp 2.0 1.0 2.0);
            ("to_ns must be >= from_ns", ramp 0.0 nan 2.0);
            ("factor must be finite", step 0.0 inf);
            ("factor must be finite", spike 0.0 1.0 inf);
            ("factor must be finite", ramp 0.0 1.0 inf);
          ];
        Alcotest.check_raises "infinite base"
          (Invalid_argument "Fault.surge: base_mpps must be finite") (fun () ->
            ignore (Fault.surge ~base_mpps:inf []));
        (* The edges stay legal: a zero-length spike, an instant ramp. *)
        ignore (Fault.surge ~base_mpps:1.0 [ spike 0.0 0.0 2.0; ramp 5.0 5.0 0.5 ]));
  ]

(* ------------------------------------------------------------------ *)
(* NIC                                                                 *)
(* ------------------------------------------------------------------ *)

let nic_tests =
  [
    Alcotest.test_case "64B line rate is 14.88 Mpps" `Quick (fun () ->
        check (Alcotest.float 0.01) "mpps" 14.88 (Nic.max_mpps ~frame_bytes:64));
    Alcotest.test_case "1500B line rate" `Quick (fun () ->
        check (Alcotest.float 0.001) "mpps" 0.822 (Nic.max_mpps ~frame_bytes:1500));
    Alcotest.test_case "invalid size rejected" `Quick (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Nic.max_mpps: frame size must be positive")
          (fun () -> ignore (Nic.max_mpps ~frame_bytes:0)));
  ]

let cost_tests =
  [
    Alcotest.test_case "cycle conversion at 3 GHz" `Quick (fun () ->
        check (Alcotest.float 1e-9) "ns" 100.0 (Cost.ns_of_cycles Cost.default 300));
    Alcotest.test_case "VM preset is uniformly costlier on the hop path" `Quick (fun () ->
        check Alcotest.bool "enqueue" true (Cost.vm.ring_enqueue > Cost.default.ring_enqueue);
        check Alcotest.bool "dequeue" true (Cost.vm.ring_dequeue > Cost.default.ring_dequeue);
        check Alcotest.bool "copies" true (Cost.vm.header_copy > Cost.default.header_copy);
        check Alcotest.bool "same clock" true (Cost.vm.ghz = Cost.default.ghz);
        check Alcotest.bool "same batch" true (Cost.vm.batch = Cost.default.batch));
  ]

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

(* A one-core system with a known deterministic service time. *)
let fixed_system ~service_ns ~ring engine ~output =
  let health = Harness.fresh_health () in
  let core =
    thunk_server ~engine ~name:"core" ~ring_capacity:ring ~batch:32
      ~service_ns:(fun _ -> service_ns)
      ~execute:(fun (pid, pkt) ->
        fun () ->
          output ~pid pkt;
          true)
      ()
  in
  {
    Harness.inject =
      (fun ~pid pkt ->
        if not (Server.offer core (pid, pkt)) then
          health.drops.ingress_rejected <- health.drops.ingress_rejected + 1);
    classifier = (fun () -> Harness.no_classifier_counters);
    health = (fun () -> Harness.copy_health health);
  }

let gen _ =
  Nfp_packet.Packet.create
    ~flow:
      (Nfp_packet.Flow.make
         ~sip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.1"))
         ~dip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.2"))
         ~sport:1 ~dport:2 ~proto:6)
    ~payload:"x" ()

let harness_tests =
  [
    Alcotest.test_case "delivers every packet below capacity" `Quick (fun () ->
        let r =
          Harness.run
            ~make:(fixed_system ~service_ns:100.0 ~ring:64)
            ~gen ~arrivals:(Harness.Uniform 5.0) ~packets:1000 ()
        in
        check Alcotest.int "delivered" 1000 r.delivered;
        check Alcotest.int "no drops" 0 r.ring_drops);
    Alcotest.test_case "overload drops at the entry" `Quick (fun () ->
        (* Service 1000ns = 1 Mpps; offer 5 Mpps. *)
        let r =
          Harness.run
            ~make:(fixed_system ~service_ns:1000.0 ~ring:16)
            ~gen ~arrivals:(Harness.Uniform 5.0) ~packets:2000 ()
        in
        check Alcotest.bool "drops happen" true (r.ring_drops > 0);
        check Alcotest.int "conservation" 2000 (r.delivered + r.ring_drops));
    Alcotest.test_case "latency approximates the service time at low load" `Quick
      (fun () ->
        let r =
          Harness.run
            ~make:(fixed_system ~service_ns:100.0 ~ring:64)
            ~gen ~arrivals:(Harness.Uniform 0.5) ~packets:500 ()
        in
        let mean = Nfp_algo.Stats.mean r.latency in
        if mean < 99.0 || mean > 200.0 then Alcotest.failf "mean %.1f implausible" mean);
    Alcotest.test_case "max_lossless finds the capacity" `Quick (fun () ->
        (* 100ns service = 10 Mpps capacity. *)
        let rate =
          Harness.max_lossless_mpps
            ~make:(fixed_system ~service_ns:100.0 ~ring:64)
            ~gen ~packets:4000 ~hi:14.88 ()
        in
        if rate < 8.5 || rate > 11.0 then Alcotest.failf "rate %.2f not near 10" rate);
    Alcotest.test_case "burst arrivals keep the mean rate" `Quick (fun () ->
        let r =
          Harness.run
            ~make:(fixed_system ~service_ns:10.0 ~ring:256)
            ~gen ~arrivals:(Harness.Burst (1.0, 32)) ~packets:3200 ()
        in
        check Alcotest.int "all delivered" 3200 r.delivered;
        (* 3200 packets at 1 Mpps mean is about 3.2 ms. *)
        if r.duration_ns < 2.5e6 || r.duration_ns > 4.5e6 then
          Alcotest.failf "duration %.0f off" r.duration_ns);
    Alcotest.test_case "poisson arrivals deliver everything below capacity" `Quick
      (fun () ->
        let r =
          Harness.run
            ~make:(fixed_system ~service_ns:100.0 ~ring:256)
            ~gen ~arrivals:(Harness.Poisson 2.0) ~packets:2000 ()
        in
        check Alcotest.int "delivered" 2000 r.delivered);
    Alcotest.test_case "warmup trims latency samples" `Quick (fun () ->
        let r =
          Harness.run
            ~make:(fixed_system ~service_ns:50.0 ~ring:64)
            ~gen ~arrivals:(Harness.Uniform 1.0) ~packets:100 ~warmup:90 ()
        in
        check Alcotest.int "ten samples" 10 (Nfp_algo.Stats.count r.latency));
    Alcotest.test_case "seeded runs are reproducible" `Quick (fun () ->
        let once () =
          let r =
            Harness.run
              ~make:(fixed_system ~service_ns:100.0 ~ring:64)
              ~gen ~arrivals:(Harness.Poisson 3.0) ~packets:500 ~seed:9L ()
          in
          Nfp_algo.Stats.mean r.latency
        in
        check (Alcotest.float 1e-9) "same" (once ()) (once ()));
    Alcotest.test_case "negative packet count is rejected" `Quick (fun () ->
        let run ?(packets = 20) arrivals () =
          ignore
            (Harness.run ~make:(fixed_system ~service_ns:100.0 ~ring:64) ~gen ~arrivals ~packets ())
        in
        Alcotest.check_raises "packets"
          (Invalid_argument "Harness.run: packets must be >= 0")
          (run ~packets:(-3) (Harness.Uniform 1.0));
        (* Arrivals that used to fail mid-run (negative delay, division by
           zero) or return an infinite or NaN duration. *)
        List.iter
          (fun (label, arrivals) ->
            Alcotest.check_raises label
              (Invalid_argument "Harness.run: arrival rate must be positive") (run arrivals))
          [
            ("uniform -1", Harness.Uniform (-1.0));
            ("uniform 0", Harness.Uniform 0.0);
            ("uniform nan", Harness.Uniform Float.nan);
            ("poisson 0", Harness.Poisson 0.0);
            ("burst nan", Harness.Burst (Float.nan, 4));
          ];
        List.iter
          (fun k ->
            Alcotest.check_raises (Printf.sprintf "burst of %d" k)
              (Invalid_argument "Harness.run: burst size must be >= 1")
              (run (Harness.Burst (1.0, k))))
          [ 0; -2 ]);
    Alcotest.test_case "infinite rates and bad lossless brackets are rejected" `Quick (fun () ->
        (* An infinite rate used to fail mid-run (Poisson) or run with
           zero arrival gaps (Uniform, Burst). *)
        List.iter
          (fun (label, arrivals) ->
            Alcotest.check_raises label
              (Invalid_argument "Harness.run: arrival rate must be finite") (fun () ->
                ignore
                  (Harness.run ~make:(fixed_system ~service_ns:100.0 ~ring:64) ~gen ~arrivals
                     ~packets:20 ())))
          [
            ("uniform inf", Harness.Uniform Float.infinity);
            ("poisson inf", Harness.Poisson Float.infinity);
            ("burst inf", Harness.Burst (Float.infinity, 4));
          ];
        (* Both searches, sequential and speculative, refuse before
           probing anything. *)
        List.iter
          (fun (lo, hi) ->
            List.iter
              (fun domains ->
                Alcotest.check_raises
                  (Printf.sprintf "bracket [%g, %g] on %d domains" lo hi domains)
                  (Invalid_argument
                     "Harness.max_lossless_mpps: the bracket must be finite with 0 < lo < hi")
                  (fun () ->
                    ignore
                      (Harness.max_lossless_mpps
                         ~make:(fixed_system ~service_ns:100.0 ~ring:64)
                         ~gen ~packets:100 ~lo ~hi ~domains ())))
              [ 1; 2 ])
          [
            (0.0, 1.0);
            (-1.0, 1.0);
            (2.0, 1.0);
            (1.0, 1.0);
            (1.0, Float.infinity);
            (Float.neg_infinity, 1.0);
            (Float.nan, 1.0);
            (0.5, Float.nan);
          ]);
    Alcotest.test_case "negative bisection depth is rejected" `Quick (fun () ->
        (* One domain runs the sequential bisection, two the speculative
           one; both must refuse before probing anything. *)
        List.iter
          (fun domains ->
            Alcotest.check_raises
              (Printf.sprintf "%d domains" domains)
              (Invalid_argument "Harness.max_lossless_mpps: iterations must be >= 0")
              (fun () ->
                ignore
                  (Harness.max_lossless_mpps
                     ~make:(fixed_system ~service_ns:100.0 ~ring:64)
                     ~gen ~packets:100 ~hi:14.88 ~iterations:(-1) ~domains ())))
          [ 1; 2 ];
        (* A pool of fewer than one worker is refused, not clamped to 1. *)
        List.iter
          (fun domains ->
            Alcotest.check_raises
              (Printf.sprintf "lossless search on %d domains" domains)
              (Invalid_argument "Harness.max_lossless_mpps: domains must be >= 1")
              (fun () ->
                ignore
                  (Harness.max_lossless_mpps
                     ~make:(fixed_system ~service_ns:100.0 ~ring:64)
                     ~gen ~packets:100 ~hi:14.88 ~domains ()));
            Alcotest.check_raises
              (Printf.sprintf "parallel runs on %d domains" domains)
              (Invalid_argument "Harness.parallel_runs: domains must be >= 1")
              (fun () -> ignore (Harness.parallel_runs ~domains [ Fun.id; Fun.id ])))
          [ 0; -1 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                   *)
(* ------------------------------------------------------------------ *)

(* Full delivery-time trace of a run: stronger than comparing summary
   statistics, this pins the entire arrival sequence. *)
let delivery_trace ~arrivals ~seed =
  let times = ref [] in
  let make engine ~output =
    fixed_system ~service_ns:50.0 ~ring:512 engine
      ~output:(fun ~pid pkt ->
        times := Engine.now engine :: !times;
        output ~pid pkt)
  in
  ignore (Harness.run ~make ~gen ~arrivals ~packets:800 ~seed ());
  List.rev !times

let arrivals_tests =
  [
    Alcotest.test_case "poisson trace is identical under a fixed seed" `Quick (fun () ->
        check
          Alcotest.(list (float 1e-12))
          "same trace"
          (delivery_trace ~arrivals:(Harness.Poisson 2.0) ~seed:42L)
          (delivery_trace ~arrivals:(Harness.Poisson 2.0) ~seed:42L));
    Alcotest.test_case "poisson trace changes with the seed" `Quick (fun () ->
        check Alcotest.bool "different" true
          (delivery_trace ~arrivals:(Harness.Poisson 2.0) ~seed:42L
          <> delivery_trace ~arrivals:(Harness.Poisson 2.0) ~seed:43L));
    Alcotest.test_case "burst trace is identical under a fixed seed" `Quick (fun () ->
        check
          Alcotest.(list (float 1e-12))
          "same trace"
          (delivery_trace ~arrivals:(Harness.Burst (2.0, 16)) ~seed:42L)
          (delivery_trace ~arrivals:(Harness.Burst (2.0, 16)) ~seed:42L));
    Alcotest.test_case "burst mean rate holds across burst sizes" `Quick (fun () ->
        List.iter
          (fun k ->
            let r =
              Harness.run
                ~make:(fixed_system ~service_ns:10.0 ~ring:1024)
                ~gen
                ~arrivals:(Harness.Burst (2.0, k))
                ~packets:3200 ()
            in
            (* 3200 packets at a 2 Mpps mean is 1.6 ms; allow 25% for
               the truncated final burst and gap jitter. *)
            let expect = 1.6e6 in
            if r.duration_ns < 0.75 *. expect || r.duration_ns > 1.25 *. expect then
              Alcotest.failf "burst %d: duration %.0f ns, expected about %.0f" k
                r.duration_ns expect)
          [ 4; 32; 128 ]);
  ]

let () =
  Alcotest.run "nfp_sim"
    [
      ("engine", engine_tests);
      ("timer", timer_tests);
      ("line", line_tests);
      ("server", server_tests);
      ("fault", fault_tests);
      ("nic", nic_tests);
      ("cost", cost_tests);
      ("harness", harness_tests);
      ("arrivals", arrivals_tests);
    ]
