from syndatum.cli import main

raise SystemExit(main())
